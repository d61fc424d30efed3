package obs

import (
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Histogram is the lock-free counterpart of metrics.Histogram: the same
// log-scale bucket layout (shared via metrics.BucketIndex, so quantiles
// agree with client-side metrics.Histograms), but every bucket is an
// atomic — Observe is three uncontended atomic adds plus a max check and
// is safe from any goroutine. A nil *Histogram no-ops. Besides the
// registry's stage histograms, the engine keeps one per shard for
// Engine.Stats, which reads them through Summarize.
type Histogram struct {
	counts [metrics.HistogramBuckets]atomic.Uint64
	count  atomic.Uint64
	sumNS  atomic.Uint64
	maxNS  atomic.Uint64
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.counts[metrics.BucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		m := h.maxNS.Load()
		if ns <= m || h.maxNS.CompareAndSwap(m, ns) {
			break
		}
	}
}

// Count returns the number of observations, zero on a nil histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Summarize merges the histograms' observations into one latency
// summary — count, mean, p50/p95/p99 and max, with metrics.Histogram's
// quantiles. Nil histograms contribute nothing. Reads race benignly with
// concurrent Observe calls: each field is exact as of its own load.
func Summarize(hs ...*Histogram) metrics.LatencySummary {
	var counts [metrics.HistogramBuckets]uint64
	var sum, maxNS uint64
	for _, h := range hs {
		if h == nil {
			continue
		}
		for i := range counts {
			counts[i] += h.counts[i].Load()
		}
		sum += h.sumNS.Load()
		maxNS = max(maxNS, h.maxNS.Load())
	}
	return metrics.SummaryOf(&counts, sum, maxNS)
}

// write renders the series in exposition format: cumulative non-empty
// buckets with `le` edges in seconds, a mandatory +Inf bucket, then _sum
// and _count. Buckets the workload never touched are elided — with 512
// layout buckets per stage that is the difference between a ~2KB and a
// ~40KB scrape.
func (h *Histogram) write(b *strings.Builder, name, suffix string) {
	var cum uint64
	for i := 0; i < metrics.HistogramBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		b.WriteString(name)
		b.WriteString("_bucket")
		le := float64(metrics.BucketUpperNS(i)) / 1e9
		b.WriteString(labelSuffixWith(suffix, "le", strconv.FormatFloat(le, 'g', -1, 64)))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(cum, 10))
		b.WriteByte('\n')
	}
	count := h.count.Load()
	b.WriteString(name)
	b.WriteString("_bucket")
	b.WriteString(labelSuffixWith(suffix, "le", "+Inf"))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(count, 10))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(suffix)
	b.WriteByte(' ')
	b.WriteString(formatFloat(float64(h.sumNS.Load()) / 1e9))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(suffix)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(count, 10))
	b.WriteByte('\n')
}
