package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/roadnet"
	datagen "repro/internal/workload"
)

// The traced run reads the daemon's own counters from outside, records
// the inputs it sent, and afterwards replays them into each layer's
// public functions in this process, with a span around every call. Spans
// stay in memory and are written out once, at the end.

const (
	maxSpans     = 200000
	maxFixFrames = 20000
	replayBudget = 1500 * time.Millisecond // per replayed layer
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"` // items the call handled
}

// input is one recorded frame (or JSON write) in send order.
type input struct {
	kind    reqKind
	batch   api.IngestBatch
	payload []byte // encoded frame payload, fix frames only
}

type tracer struct {
	t0        time.Time
	mu        sync.Mutex
	spans     []span
	inputs    []input
	fixFrames int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// add records a finished span and returns its id (0 once the cap is hit).
func (t *tracer) add(parent int, name string, start, end time.Time, count int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, name, t.ns(start), t.ns(end), count})
	return id
}

// record keeps one sent frame for the replay: every write, since the
// replayed stores must assign the ids the daemon assigned, but only the
// first maxFixFrames fix frames, which bound the replay's memory.
// begin opens a span that end closes; spans recorded in between may
// name it as their parent.
func (t *tracer) begin(parent int, name string) int {
	now := time.Now()
	return t.add(parent, name, now, now, 0)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.ns(time.Now())
	t.mu.Unlock()
}

func (t *tracer) record(q *req, b api.IngestBatch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	in := input{kind: q.kind, batch: b}
	if q.kind == kindFix {
		if t.fixFrames == maxFixFrames {
			return
		}
		t.fixFrames++
		in.payload = api.AppendBatch(nil, b)
	}
	t.inputs = append(t.inputs, in)
}

// frameSpan records one live fix frame: a root span from due time to
// ack with a child for the wire round trip.
func (t *tracer) frameSpan(q *req, acked time.Time) {
	root := t.add(0, "client.fix_frame", q.due, acked, len(q.sessions))
	if root != 0 {
		t.add(root, "client.round_trip", q.sent, acked, len(q.sessions))
	}
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// sampleSnapshots polls the daemon's live-snapshot gauge between two
// times and returns its maximum.
func (r *run) sampleSnapshots(from, until time.Time) float64 {
	sleepUntil(from)
	var peak float64
	for time.Now().Before(until) {
		if m, err := r.d.metrics(); err == nil {
			peak = max(peak, m["insq_snapshots_live"])
		}
		time.Sleep(100 * time.Millisecond)
	}
	return peak
}

// replay feeds the recorded inputs into the api, engine, core and index
// layers and stores their figures in res.layers.
func (r *run) replay(res *result, objects []geom.Point) error {
	res.layers = map[string]float64{}
	t := r.trace
	if objects == nil {
		objects = datagen.Uniform(r.w.objects, r.bounds, r.seed)
	}
	var sites []int
	if r.w.network {
		var err error
		if sites, err = datagen.NetworkSites(r.g, r.w.sites, r.seed+1); err != nil {
			return err
		}
	}
	var frames, muts []input
	for _, in := range t.inputs {
		if in.kind == kindFix {
			frames = append(frames, in)
		} else {
			muts = append(muts, in)
		}
	}

	// api: decode the recorded fix frames, pass after pass.
	root := t.begin(0, "replay.api")
	var decoded int
	start := time.Now()
	for time.Since(start) < replayBudget/3 {
		s := time.Now()
		for _, in := range frames {
			if _, err := api.DecodeBatch(in.payload); err != nil {
				return err
			}
		}
		decoded += len(frames)
		t.add(root, "api.DecodeBatch", s, time.Now(), len(frames))
	}
	t.end(root)
	res.layers["api.decode_ns_per_frame"] = ratio(float64(time.Since(start).Nanoseconds()), float64(decoded))

	if err := r.replayEngine(res, objects, sites); err != nil {
		return err
	}
	if err := r.replayCore(res, objects, sites, frames); err != nil {
		return err
	}
	return r.replayIndex(res, objects, sites, muts)
}

func (r *run) storeConfig(objects []geom.Point, sites []int) index.Config {
	cfg := index.Config{Bounds: r.bounds, Objects: objects}
	if r.w.network {
		cfg.Network, cfg.NetworkSites = r.g, sites
	}
	return cfg
}

// replayEngine runs the recorded inputs, in order, through an in-process
// engine built like the daemon's: no wire, no HTTP.
func (r *run) replayEngine(res *result, objects []geom.Point, sites []int) error {
	t := r.trace
	cfg := engine.Config{Shards: 2, Bounds: r.bounds, Objects: objects}
	if r.w.network {
		cfg.Network, cfg.NetworkSites = r.g, sites
	}
	e, err := engine.New(cfg)
	if err != nil {
		return err
	}
	defer e.Close()
	for i, want := range r.f.sids {
		var sid engine.SessionID
		if r.w.network {
			sid, err = e.CreateNetworkSession(r.w.k, r.w.rho)
		} else {
			sid, err = e.CreateSession(r.w.k, r.w.rho)
		}
		if err != nil {
			return err
		}
		if uint64(sid) != want {
			return fmt.Errorf("engine replay: session %d got id %d, daemon gave %d", i, sid, want)
		}
	}
	ctx := context.Background()
	root := t.begin(0, "replay.engine")
	defer t.end(root)
	var batches samples
	start := time.Now()
	for _, in := range t.inputs {
		if time.Since(start) > replayBudget {
			break
		}
		s := time.Now()
		b := in.batch
		switch {
		case len(b.Mutations) > 0:
			if _, err := e.ApplyMutations(ctx, b.Mutations); err != nil {
				return err
			}
			t.add(root, "engine.ApplyMutations", s, time.Now(), len(b.Mutations))
			continue
		case r.w.network:
			_, err = e.UpdateNetworkBatchCtx(ctx, api.NewNetworkLocationUpdates(b.NetworkUpdates))
		default:
			_, err = e.UpdateBatchCtx(ctx, api.NewLocationUpdates(b.Updates))
		}
		if err != nil {
			return err
		}
		end := time.Now()
		batches.add(end.Sub(s))
		t.add(root, "engine.UpdateBatchCtx", s, end, len(b.Updates)+len(b.NetworkUpdates))
	}
	res.layers["engine.batch_us_p50"] = batches.quantileUS(0.5)
	return nil
}

// replayCore replays the recorded fixes of the first sessions through
// standalone INS queries pinned to a store built from the seed.
func (r *run) replayCore(res *result, objects []geom.Point, sites []int, frames []input) error {
	t := r.trace
	st, err := index.NewStore(r.storeConfig(objects, sites))
	if err != nil {
		return err
	}
	defer st.Close()
	sids := r.f.sids[:min(100, len(r.f.sids))]
	replayed := map[uint64]bool{}
	for _, sid := range sids {
		replayed[sid] = true
	}
	plane := map[uint64][]geom.Point{}
	network := map[uint64][]roadnet.Position{}
	for _, in := range frames {
		for _, u := range in.batch.Updates {
			if replayed[u.Session] {
				plane[u.Session] = append(plane[u.Session], geom.Pt(u.X, u.Y))
			}
		}
		for _, u := range in.batch.NetworkUpdates {
			if replayed[u.Session] {
				network[u.Session] = append(network[u.Session], roadnet.Position{U: u.U, V: u.V, T: u.T})
			}
		}
	}
	root := t.begin(0, "replay.core")
	defer t.end(root)
	var total time.Duration
	var calls int
	for _, sid := range sids {
		s := time.Now()
		if r.w.network {
			q, err := core.NewNetworkQueryPinned(st, r.w.k, r.w.rho)
			if err != nil {
				return err
			}
			for _, p := range network[sid] {
				if _, err := q.Update(p); err != nil {
					return err
				}
			}
			calls += len(network[sid])
			q.Close()
		} else {
			q, err := core.NewPlaneQueryPinned(st, r.w.k, r.w.rho)
			if err != nil {
				return err
			}
			for _, p := range plane[sid] {
				if _, err := q.Update(p); err != nil {
					return err
				}
			}
			calls += len(plane[sid])
			q.Close()
		}
		end := time.Now()
		total += end.Sub(s)
		name := "core.PlaneQuery.Update"
		if r.w.network {
			name = "core.NetworkQuery.Update"
		}
		t.add(root, name, s, end, len(plane[sid])+len(network[sid]))
	}
	res.layers["core.update_ns"] = ratio(float64(total.Nanoseconds()), float64(calls))
	return nil
}

// replayIndex applies the recorded mutation batches to a fresh store: the
// warm-up burst fills its mutation log, then the timed writes are
// measured, each as its own ApplyCtx call as the daemon applied them.
func (r *run) replayIndex(res *result, objects []geom.Point, sites []int, muts []input) error {
	if len(muts) == 0 {
		res.layers["index.apply_allocs_per_mutation"] = 0
		res.layers["index.apply_bytes_per_mutation"] = 0
		return nil
	}
	t := r.trace
	st, err := index.NewStore(r.storeConfig(objects, sites))
	if err != nil {
		return err
	}
	defer st.Close()
	ctx := context.Background()
	i := 0
	for ; i < len(muts) && muts[i].kind == kindBurst; i++ {
		if _, err := st.ApplyCtx(ctx, muts[i].batch.Mutations); err != nil {
			return fmt.Errorf("index replay, warm-up frame %d: %w", i, err)
		}
	}
	root := t.begin(0, "replay.index")
	defer t.end(root)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := 0
	for _, in := range muts[i:] {
		s := time.Now()
		if _, err := st.ApplyCtx(ctx, in.batch.Mutations); err != nil {
			return fmt.Errorf("index replay: %w", err)
		}
		t.add(root, "index.Store.ApplyCtx", s, time.Now(), len(in.batch.Mutations))
		n += len(in.batch.Mutations)
	}
	runtime.ReadMemStats(&after)
	res.layers["index.apply_allocs_per_mutation"] = ratio(float64(after.Mallocs-before.Mallocs), float64(n))
	res.layers["index.apply_bytes_per_mutation"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(n))
	return nil
}

// openStage sums one pipeline stage over the used open-loop windows.
func (r *run) openStage(name string) stageDelta {
	var d stageDelta
	for _, w := range r.windows(phaseOpen) {
		d.merge(stageBetween(r.marks[w.idx].prom, r.marks[w.idx+1].prom, name))
	}
	return d
}

// layerMetrics assembles the traced run's per-layer figures. Stage times
// cover the open-loop windows, like the location latency they explain;
// counters cover every measured window.
func (res *result) layerMetrics(r *run) {
	b, a := res.before, res.after
	sb, sa := b.stats, a.stats
	measuredS := a.at.Sub(b.at).Seconds()
	cnt := func(f func(api.StatsResponse) int) float64 { return float64(f(sa) - f(sb)) }
	updates := cnt(func(s api.StatsResponse) int { return s.Counters.Timestamps })
	epochs := float64(sa.Epoch - sb.Epoch)
	prom := func(series string) float64 { return delta(b.prom, a.prom, series) }

	decode, queue, apply := r.openStage("decode"), r.openStage("queue"), r.openStage("apply")
	sweep, publish := r.openStage("sweep"), r.openStage("publish")
	walAppend, fsync, push := r.openStage("wal_append"), r.openStage("fsync"), r.openStage("push")
	measured, end := r.marks[1].prom, r.marks[len(r.marks)-1].prom
	sweepsAll := stageBetween(measured, end, "sweep")
	publishesAll := stageBetween(measured, end, "publish")

	var ingestIn, ingestOps, frames, groups float64
	if sa.Ingest != nil && sb.Ingest != nil {
		ingestIn = float64(sa.Ingest.BytesIn - sb.Ingest.BytesIn)
		ingestOps = float64(sa.Ingest.Updates - sb.Ingest.Updates + sa.Ingest.Mutations - sb.Ingest.Mutations)
		frames = float64(sa.Ingest.FramesTotal - sb.Ingest.FramesTotal)
		groups = float64(sa.Ingest.Batches - sb.Ingest.Batches)
	}
	applyPerBatch := ratio(apply.sumS*1e6, queue.count)
	var rtts samples
	for _, w := range r.windows(phaseOpen) {
		rtts.ns = append(rtts.ns, r.win[w.idx].rtt.ns...)
	}
	rtt := rtts.meanUS()
	pushLag := &samples{}
	if r.push != nil {
		pushLag = r.push.lag
	}

	n := rtts.count()
	res.add("api.decode_ns_per_frame", res.layers["api.decode_ns_per_frame"], "ns", 0)
	res.add("api.decode_us_mean", decode.meanUS(), "us", int(decode.count))
	res.add("api.bytes_in_per_update", ratio(ingestIn, ingestOps), "bytes", int(ingestOps))
	res.add("server.coalesce_factor", ratio(frames, groups), "ratio", int(groups))
	res.add("server.frame_rtt_us_mean", rtt, "us", n)
	res.add("server.unattributed_us_mean", rtt-decode.meanUS()-queue.meanUS()-applyPerBatch, "us", n)
	res.add("engine.queue_us_mean", queue.meanUS(), "us", int(queue.count))
	res.add("engine.queue_us_p50", queue.quantileUS(0.5), "us", int(queue.count))
	res.add("engine.queue_us_p99", queue.quantileUS(0.99), "us", int(queue.count))
	res.add("engine.apply_us_mean", apply.meanUS(), "us", int(apply.count))
	res.add("engine.apply_us_per_batch", applyPerBatch, "us", int(queue.count))
	res.add("engine.sweep_us_mean", sweep.meanUS(), "us", int(sweep.count))
	res.add("engine.sweeps_per_epoch", ratio(sweepsAll.count, epochs), "ratio", int(epochs))
	res.add("engine.batch_us_p50", res.layers["engine.batch_us_p50"], "us", 0)
	res.add("engine.shed", float64(res.last.Shed-res.first.Shed), "count", 0)
	res.add("engine.expired", float64(res.last.Expired-res.first.Expired), "count", 0)
	c := func(f func(api.StatsResponse) int) float64 { return ratio(cnt(f), updates) }
	res.add("core.validations_per_update", c(func(s api.StatsResponse) int { return s.Counters.Validations }), "ratio", int(updates))
	res.add("core.invalidations_per_update", c(func(s api.StatsResponse) int { return s.Counters.Invalidations }), "ratio", int(updates))
	res.add("core.distance_calcs_per_update", c(func(s api.StatsResponse) int { return s.Counters.DistanceCalcs }), "ratio", int(updates))
	res.add("core.update_ns", res.layers["core.update_ns"], "ns", 0)
	recomputes := cnt(func(s api.StatsResponse) int { return s.Counters.Recomputations })
	res.add("vortree.node_visits_per_recompute", ratio(cnt(func(s api.StatsResponse) int { return s.Counters.NodeVisits }), recomputes), "ratio", int(recomputes))
	res.add("netvor.relaxations_per_update", c(func(s api.StatsResponse) int { return s.Counters.EdgeRelaxations }), "ratio", int(updates))
	res.add("netvor.dijkstra_runs_per_update", c(func(s api.StatsResponse) int { return s.Counters.DijkstraRuns }), "ratio", int(updates))
	res.add("netvor.proj_rebuilds", float64(sa.NetProjRebuilds-sb.NetProjRebuilds), "count", 0)
	res.add("index.publish_us_p50", publish.quantileUS(0.5), "us", int(publish.count))
	res.add("index.publish_us_p99", publish.quantileUS(0.99), "us", int(publish.count))
	res.add("index.epochs_per_mutation", ratio(publishesAll.count, epochs), "ratio", int(epochs))
	res.add("index.apply_allocs_per_mutation", res.layers["index.apply_allocs_per_mutation"], "count", 0)
	res.add("index.apply_bytes_per_mutation", res.layers["index.apply_bytes_per_mutation"], "bytes", 0)
	res.add("index.snapshots_live_max", res.snapshotsMax, "count", 0)
	res.add("wal.append_us_p50", walAppend.quantileUS(0.5), "us", int(walAppend.count))
	res.add("wal.fsync_us_p50", fsync.quantileUS(0.5), "us", int(fsync.count))
	res.add("wal.bytes_per_mutation", ratio(prom("insq_wal_appended_bytes_total"), epochs), "bytes", int(epochs))
	res.add("wal.fsyncs_per_s", ratio(prom("insq_wal_fsyncs_total"), measuredS), "1/s", 0)
	res.add("wal.checkpoints", prom("insq_wal_checkpoints_total"), "count", 0)
	res.add("stream.push_us_p50", push.quantileUS(0.5), "us", int(push.count))
	res.add("stream.delivered", prom("insq_stream_delivered_total"), "count", 0)
	res.add("stream.coalesced", prom("insq_stream_coalesced_total"), "count", 0)
	res.add("stream.dropped", prom("insq_stream_dropped_total"), "count", 0)
	res.add("runtime.gc_pause_ms_per_s", ratio(prom("insq_go_gc_pause_seconds_total")*1e3, measuredS), "ms/s", 0)
	res.add("runtime.gcs_per_s", ratio(prom("insq_go_gcs_total"), measuredS), "1/s", 0)
	res.add("runtime.heap_alloc_mb", a.prom["insq_go_heap_alloc_bytes"]/(1<<20), "MB", 0)
	res.add("data_rtt_p50_us", r.dataLat.quantileUS(0.5), "us", r.dataLat.count())
	res.add("data_rtt_p99_us", r.dataLat.quantileUS(0.99), "us", r.dataLat.count())
	res.add("push_lag_p50_us", pushLag.quantileUS(0.5), "us", pushLag.count())
	res.add("push_lag_p99_us", pushLag.quantileUS(0.99), "us", pushLag.count())
	res.add("failed_frac", ratio(float64(res.failed), float64(res.attempted)), "ratio", int(res.attempted))
	res.add("gen.late_us_p99", r.late.quantileUS(0.99), "us", r.late.count())
	p50, n50 := r.latency(0.5)
	p99, n99 := r.latency(0.99)
	rate, nRate := r.capacityRate()
	res.add("loc_rtt_p50_us", p50, "us", n50)
	res.add("loc_rtt_p99_us", p99, "us", n99)
	res.add("loc_updates_per_s", rate, "1/s", nRate)
}
