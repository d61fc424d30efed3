package obs

import (
	"log/slog"
	"time"
)

// Thresholds configures when an operation is slow enough to log. A zero
// threshold disables that op's logging (the counter still exists).
type Thresholds struct {
	Batch   time.Duration // one shard batch, mailbox-dequeue to reply
	Fsync   time.Duration // one WAL fsync or always-policy commit wait
	Publish time.Duration // one epoch publication in index.Store.ApplyCtx
}

// slow-op counter indices.
const (
	slowBatch = iota
	slowFsync
	slowPublish
	slowStreamOverflow
	slowShed
	slowExpired
	numSlowOps
)

var slowOpNames = [numSlowOps]string{"batch", "fsync", "publish", "stream_overflow", "shed", "expired"}

// SlowLog emits structured warnings (via log/slog) for operations that
// exceed their thresholds, carrying the request trace ID when the slow
// operation happened on a request path. It also counts every slow op in
// insq_slow_ops_total{op=...} so dashboards can alert without scraping
// logs. A nil *SlowLog no-ops.
type SlowLog struct {
	lg *slog.Logger
	th Thresholds
	n  [numSlowOps]*Counter
}

// NewSlowLog builds a slow-op log writing to lg. lg must be non-nil.
func NewSlowLog(lg *slog.Logger, th Thresholds) *SlowLog {
	return &SlowLog{lg: lg, th: th}
}

// bindCounters registers the slow-op counters on reg; called by
// NewPipeline so that a SlowLog shared with a registry exports counts.
func (s *SlowLog) bindCounters(reg *Registry) {
	if s == nil || reg == nil {
		return
	}
	for i := 0; i < numSlowOps; i++ {
		s.n[i] = reg.Counter("insq_slow_ops_total",
			"Operations that exceeded their slow-op threshold.",
			Label{Name: "op", Value: slowOpNames[i]})
	}
}

// Batch logs a slow shard batch.
func (s *SlowLog) Batch(trace string, shard, entries int, d time.Duration) {
	if s == nil || s.th.Batch <= 0 || d < s.th.Batch {
		return
	}
	s.n[slowBatch].Inc()
	s.lg.Warn("slow_op", "op", "batch", "trace", trace,
		"shard", shard, "entries", entries, "dur", d)
}

// Fsync logs a slow WAL fsync. trace is empty for background fsyncs.
func (s *SlowLog) Fsync(trace string, d time.Duration) {
	if s == nil || s.th.Fsync <= 0 || d < s.th.Fsync {
		return
	}
	s.n[slowFsync].Inc()
	s.lg.Warn("slow_op", "op", "fsync", "trace", trace, "dur", d)
}

// Publish logs a slow epoch publication.
func (s *SlowLog) Publish(trace string, epoch uint64, muts int, d time.Duration) {
	if s == nil || s.th.Publish <= 0 || d < s.th.Publish {
		return
	}
	s.n[slowPublish].Inc()
	s.lg.Warn("slow_op", "op", "publish", "trace", trace,
		"epoch", epoch, "mutations", muts, "dur", d)
}

// StreamOverflow logs a subscriber queue overflow. Unconditional: an
// evicted event is always worth a line (and a counter tick).
func (s *SlowLog) StreamOverflow(session uint64, depth int) {
	if s == nil {
		return
	}
	s.n[slowStreamOverflow].Inc()
	s.lg.Warn("slow_op", "op", "stream_overflow",
		"session", session, "depth", depth)
}

// Shed logs a batch rejected by admission control because a target shard
// mailbox sat at its high watermark. Unconditional, like StreamOverflow:
// shed load is always worth a line.
func (s *SlowLog) Shed(trace string, shard, entries, depth int) {
	if s == nil {
		return
	}
	s.n[slowShed].Inc()
	s.lg.Warn("slow_op", "op", "shed", "trace", trace,
		"shard", shard, "entries", entries, "queue_depth", depth)
}

// Expired logs a batch whose request deadline passed while it sat in a
// shard mailbox; the shard dropped it instead of executing it late.
// Unconditional.
func (s *SlowLog) Expired(trace string, shard, entries int, waited time.Duration) {
	if s == nil {
		return
	}
	s.n[slowExpired].Inc()
	s.lg.Warn("slow_op", "op", "expired", "trace", trace,
		"shard", shard, "entries", entries, "waited", waited)
}
