// Command insqbench is the repository benchmark: it starts the real insqd
// daemon, drives it over loopback with a seeded moving-client workload,
// checks every final answer against brute force, and prints end-to-end
// (or, with -trace 1, per-layer) metrics. BENCHMARK.md in this directory
// describes the workloads and metrics; run.sh builds and runs it:
//
//	bash insqbench/run.sh --workload plane-fleet --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose answers disagree
// with brute force prints correct=false and exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	insqclient "repro/internal/client"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/roadnet"
	datagen "repro/internal/workload"
)

// spaceSide is insqd's default -space: the plane data space is
// [0, spaceSide]², and the road network is generated inside it.
const spaceSide = 10000

// Run shape: a fixed warm-up, then the measured seconds split into an
// open-loop share and a closed-loop capacity share.
const (
	warmFor     = time.Second
	cycleLen    = 2 * time.Second // one open-loop window plus one capacity window
	openShare   = 0.6             // of each cycle
	settle      = 20 * time.Millisecond
	setups      = 12 // daemon launches per untraced run; setup_s is their median
	burstFrames = 64 // warm-up mutation frames (half inserts, half removes)
	burstSize   = 64 // mutations per warm-up frame: 4096 fill index.DefaultLogDepth
	writePool   = 32 // live inserts before writes start removing the oldest
)

// workload is one traffic mix. Sizes are recorded in BENCHMARK.md.
type workload struct {
	name        string
	objects     int // plane objects the daemon builds from the seed
	sessions    int
	k           int
	rho         float64
	network     bool
	grid, sites int
	stepLen     float64
	fixRate     float64 // open-loop fixes per second
	frameFixes  int     // fixes per ingest frame
	fixConns    int     // ingest connections carrying fixes
	capWindow   int     // frames in flight per connection in the capacity phase
	writeRate   float64 // writes per second (0: none)
	jsonWrites  bool    // writes as JSON requests on their own connection
	watched     int     // sessions watched over SSE
	wal         bool
	walFlags    []string // with -data-dir, which each launch sets itself
}

var workloads = []*workload{
	{
		name: "plane-fleet", objects: 20000, sessions: 2000, k: 5, rho: 1.6, stepLen: 8,
		fixRate: 40000, frameFixes: 25, fixConns: 2, capWindow: 8,
	},
	{
		name: "plane-churn", objects: 20000, sessions: 2000, k: 5, rho: 1.6, stepLen: 8,
		fixRate: 12000, frameFixes: 25, fixConns: 1, capWindow: 8,
		writeRate: 100, watched: 200, wal: true,
		walFlags: []string{"-fsync", "interval", "-checkpoint-every", "500"},
	},
	{
		name: "network-fleet", objects: 2000, sessions: 500, k: 5, rho: 1.6, stepLen: 25,
		network: true, grid: 64, sites: 600,
		fixRate: 12000, frameFixes: 25, fixConns: 1, capWindow: 8,
		writeRate: 50, jsonWrites: true,
	},
}

// flags are the daemon's command-line flags for this workload.
func (w *workload) flags() []string {
	f := []string{"-shards", "2", "-stats-ttl", "0", "-objects", strconv.Itoa(w.objects)}
	if w.network {
		f = append(f, "-network-grid", strconv.Itoa(w.grid), "-network-sites", strconv.Itoa(w.sites))
	}
	return append(f, w.walFlags...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "workload seed: objects, graph, sites, trajectories and writes")
		seconds = flag.Int("seconds", 30, "measured seconds per run, in alternating open-loop and capacity windows")
		traceOn = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		bin     = flag.String("insqd", "", "insqd binary")
		out     = flag.String("out", "", "directory for daemon logs, WAL and traces")
	)
	flag.Parse()
	// Daemons are started from this goroutine and die with the thread that
	// forked them (Pdeathsig). Pinning main keeps that thread alive until
	// the benchmark exits; pacing goroutines end their own pinned threads.
	runtime.LockOSThread()
	// The generator allocates little that lives; collecting less often
	// keeps its pauses out of the latencies it measures.
	debug.SetGCPercent(400)
	if *bin == "" || *out == "" || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "insqbench: need -insqd, -out, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	var todo []*workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "insqbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	ok := true
	for _, w := range todo {
		r := &run{w: w, seed: *seed, seconds: *seconds, bin: *bin, out: *out}
		if *traceOn == 1 {
			r.trace = newTracer()
		}
		res, err := r.execute()
		if err != nil {
			fmt.Fprintf(os.Stderr, "insqbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.print(os.Stdout, w.name)
		ok = ok && res.correct
	}
	if !ok {
		os.Exit(1)
	}
}

// run is one workload run against one daemon.
type run struct {
	w       *workload
	seed    int64
	seconds int
	bin     string
	out     string
	trace   *tracer

	bounds geom.Rect
	g      *roadnet.Graph
	f      *fleet
	model  *model
	wr     *writer
	push   *pushTracker
	d      *daemon
	sch    *schedule

	win     []winStats // by schedule window
	marks   []mark     // at each window's start, then at the end of the last
	late    samples    // open windows: send time minus due time
	dataLat samples    // open windows: write due time to ack

	attempted, failedOps atomic.Int64

	finalMu sync.Mutex
	final   map[int][]int // fleet index -> final answer

	errMu sync.Mutex
	err   error
}

// winStats is what one schedule window measured.
type winStats struct {
	lat samples      // open: fix frame due time to ack
	rtt samples      // open: fix frame send to ack
	ok  atomic.Int64 // open: fixes and writes acked OK; capacity: fixes acked OK in the window
}

// mark is the machine and daemon state at one window boundary.
type mark struct {
	cpu   time.Duration // daemon CPU time
	steal uint64        // machine-wide steal ticks
	prom  promSnapshot  // traced runs only
}

func (r *run) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
}

func (r *run) failure() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// onAck books one acknowledged frame (or JSON write).
func (r *run) onAck(q *req, ack api.IngestAck, now time.Time) {
	if q.kind == kindFix {
		n := len(q.sessions)
		r.attempted.Add(int64(n))
		if ack.Code != api.CodeOK {
			r.failedOps.Add(int64(n))
			return
		}
		if len(ack.Results) != n {
			r.fail(fmt.Errorf("fix frame: %d results for %d fixes", len(ack.Results), n))
			return
		}
		ok := 0
		for _, res := range ack.Results {
			if res.Code == api.CodeOK {
				ok++
			}
		}
		r.failedOps.Add(int64(n - ok))
		switch q.phase {
		case phaseOpen:
			ws := &r.win[q.win]
			ws.ok.Add(int64(ok))
			// Frames due just after a capacity window queue behind its
			// tail; the window's latency starts once that has drained.
			if q.due.Sub(r.sch.windows[q.win].start) >= settle {
				ws.lat.add(now.Sub(q.due))
				ws.rtt.add(now.Sub(q.sent))
				r.late.add(q.sent.Sub(q.due))
			}
		case phaseCapacity:
			if now.Before(r.sch.windows[q.win].end) {
				r.win[q.win].ok.Add(int64(ok))
			}
		case phaseFinal:
			r.finalMu.Lock()
			for j, res := range ack.Results {
				r.final[q.sessions[j]] = res.KNN
			}
			r.finalMu.Unlock()
		}
		if r.trace != nil && q.phase <= phaseOpen {
			r.trace.frameSpan(q, now)
		}
		return
	}
	// A write: one insert or one removal.
	r.attempted.Add(1)
	m := q.muts[0]
	if ack.Code != api.CodeOK {
		r.failedOps.Add(1)
		if q.kind == kindInsert {
			r.wr.insertAcked(q.write, -1)
			if m.Network {
				r.model.setSite(m.ID, false)
			}
		}
		return
	}
	if q.phase == phaseOpen {
		r.dataLat.add(now.Sub(q.due))
		r.win[q.win].ok.Add(1)
	}
	switch {
	case q.kind == kindInsert && m.Network:
		r.model.setSite(m.ID, true)
		r.wr.insertAcked(q.write, m.ID)
	case q.kind == kindInsert:
		if len(ack.MutationIDs) != 1 {
			r.fail(fmt.Errorf("insert ack carries %d ids", len(ack.MutationIDs)))
			return
		}
		id := ack.MutationIDs[0]
		if err := r.model.insertPlane(id, m.P); err != nil {
			r.fail(err)
			return
		}
		r.wr.insertAcked(q.write, id)
		if r.push != nil {
			r.push.inserted(id, q.due, q.phase == phaseOpen)
		}
	case m.Network:
		r.model.setSite(m.ID, false)
	default:
		r.model.removePlane(m.ID)
		if r.push != nil {
			r.push.removed(m.ID)
		}
	}
}

// execute performs the whole run: set-up, warm-up, the measured phases,
// the oracle, and in a traced run the layer replay.
func (r *run) execute() (*result, error) {
	w := r.w
	// Two processors for the generator's own work, plus one for each
	// pacing thread: a thread asleep in nanosleep keeps its processor.
	pacers := w.fixConns
	if w.jsonWrites {
		pacers++
	}
	runtime.GOMAXPROCS(2 + pacers)
	r.bounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(spaceSide, spaceSide))
	r.final = make(map[int][]int)
	var objects []geom.Point
	if w.network {
		g, err := datagen.Network(w.grid, r.bounds, r.seed)
		if err != nil {
			return nil, err
		}
		sites, err := datagen.NetworkSites(g, w.sites, r.seed+1)
		if err != nil {
			return nil, err
		}
		r.g = g
		r.model = newNetworkModel(g, sites)
	} else {
		objects = datagen.Uniform(w.objects, r.bounds, r.seed)
		r.model = newPlaneModel(objects)
	}
	if err := oracleSelfCheck(r.model, w.k, r.g); err != nil {
		return nil, err
	}
	f, err := newFleet(w, r.bounds, r.g, r.seed)
	if err != nil {
		return nil, err
	}
	r.f = f
	r.wr = newWriter(r.seed, writePool)
	runDir := filepath.Join(r.out, "run", w.name)

	// Set-up, several times: exec to ready, every session created and
	// placed. Half the launches come before the measured phases and half
	// after, so that setup_s samples the machine over the whole run.
	// Traced runs report no setup_s and launch once.
	before, after := setups/2, setups-setups/2
	if r.trace != nil {
		before, after = 1, 0
	}
	var setupS []float64
	for i := 0; i < before; i++ {
		d, secs, err := r.setUp(runDir)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, secs)
		if i < before-1 {
			d.stop()
			continue
		}
		r.d = d
	}
	res, err := r.measure()
	r.d.stop()
	if err != nil {
		return nil, err
	}
	for i := 0; i < after; i++ {
		d, secs, err := r.setUp(runDir)
		if err != nil {
			return nil, err
		}
		d.stop()
		setupS = append(setupS, secs)
	}
	res.setupS = setupS
	if r.trace != nil {
		if err := r.replay(res, objects); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		path := filepath.Join(r.out, "traces", fmt.Sprintf("%s-seed%d.json", w.name, r.seed))
		if err := r.trace.write(path); err != nil {
			return nil, err
		}
		res.tracePath = path
	}
	res.finish(r)
	return res, nil
}

// setUp launches a daemon and creates and places every session on it,
// returning the daemon and the seconds from exec until it was done.
func (r *run) setUp(runDir string) (*daemon, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(r.bin, runDir, r.w, r.seed)
	if err != nil {
		return nil, 0, err
	}
	if err := r.createAndPlace(d); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return d, time.Since(t0).Seconds(), nil
}

// createAndPlace creates every session over JSON, on two connections at
// once, and sends each its first fix on one temporary ingest connection.
// Sessions are alike until placed, so the ids are sorted and handed out
// in order: every launch gives slot i the same id.
func (r *run) createAndPlace(d *daemon) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ids := make([]uint64, len(r.f.sids))
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ids) && errs[c] == nil; i += len(errs) {
				ids[i], errs[c] = d.cl.CreateSession(r.w.k, r.w.rho, r.w.network)
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	slices.Sort(ids)
	for i, sid := range ids {
		if r.f.sids[i] != 0 && r.f.sids[i] != sid {
			return fmt.Errorf("session %d got id %d, earlier launch gave %d", i, sid, r.f.sids[i])
		}
		r.f.sids[i] = sid
	}
	in, err := insqclient.DialIngestTCP(ctx, d.ingestAddr, 0)
	if err != nil {
		return err
	}
	defer in.Close()
	for lo := 0; lo < len(r.f.sids); lo += 100 {
		var b api.IngestBatch
		for i := lo; i < min(lo+100, len(r.f.sids)); i++ {
			r.f.place(i, &b)
		}
		ack, err := in.Call(b)
		if err != nil {
			return err
		}
		if ack.Code != api.CodeOK || ack.Applied != len(b.Updates)+len(b.NetworkUpdates) {
			return fmt.Errorf("placement frame: %s (%d applied): %s", ack.Code, ack.Applied, ack.Message)
		}
	}
	return in.Close()
}

// snapshot is the daemon's state at the start or end of the measured
// windows.
type snapshot struct {
	at    time.Time
	stats api.StatsResponse
	prom  promSnapshot // traced runs only
}

func (r *run) snap() (snapshot, error) {
	s := snapshot{at: time.Now()}
	st, err := r.d.cl.Stats()
	if err != nil {
		return s, err
	}
	s.stats = *st
	if r.trace != nil {
		s.prom, err = r.d.metrics()
	}
	return s, err
}

// markWindows reads the daemon's CPU time (and, traced, its /metrics) at
// every window boundary, and its stats at the start and end of the
// measured windows. It returns once the last window has ended.
func (r *run) markWindows(before, after *snapshot) error {
	wins := r.sch.windows
	for i := 1; i <= len(wins); i++ {
		var at time.Time
		if i < len(wins) {
			at = wins[i].start
		} else {
			at = r.sch.end()
		}
		sleepUntil(at)
		m := &r.marks[i]
		var err error
		if m.cpu, err = r.d.cpuTime(); err != nil {
			return err
		}
		if m.steal, err = stealTicks(); err != nil {
			return err
		}
		if r.trace != nil {
			if m.prom, err = r.d.metrics(); err != nil {
				return err
			}
		}
		switch i {
		case 1:
			*before, err = r.snap()
		case len(wins):
			*after, err = r.snap()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// measure drives the warm-up, open-loop and capacity phases, then the
// oracle, against the kept daemon.
func (r *run) measure() (*result, error) {
	w, d := r.w, r.d
	res := &result{}
	first, err := d.cl.Stats()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var conns []*conn
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	for i := 0; i < w.fixConns; i++ {
		c, err := dialConn(ctx, r, d.ingestAddr, w.capWindow)
		if err != nil {
			return nil, err
		}
		conns = append(conns, c)
	}
	var jsonCl *insqclient.Client
	if w.jsonWrites {
		jsonCl = insqclient.New(d.base, insqclient.Options{Retries: -1, HTTPClient: oneConnClient()})
	}
	if w.watched > 0 {
		r.push = newPushTracker()
		sids := r.f.sids[:w.watched]
		stop, err := insqclient.New(d.base, insqclient.Options{Retries: -1}).Subscribe(sids, r.push.onEvent)
		if err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		defer stop()
		for deadline := time.Now().Add(10 * time.Second); r.push.events.Load() < uint64(w.watched); {
			if time.Now().After(deadline) {
				return nil, errors.New("subscribe: snapshot events missing")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if w.writeRate > 0 {
		if err := r.burst(conns[0]); err != nil {
			return nil, fmt.Errorf("warm-up burst: %w", err)
		}
	}

	r.sch = newSchedule(time.Now().Add(20*time.Millisecond), time.Duration(r.seconds)*time.Second)
	r.win = make([]winStats, len(r.sch.windows))
	r.marks = make([]mark, len(r.sch.windows)+1)

	var wg sync.WaitGroup
	errs := make(chan error, len(conns)+2)
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			errs <- r.driveIngest(c, i, i == 0 && w.writeRate > 0 && !w.jsonWrites)
		}(i, c)
	}
	if jsonCl != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- r.driveJSONWrites(jsonCl)
		}()
	}
	var before, after snapshot
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- r.markWindows(&before, &after)
	}()
	if r.trace != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.snapshotsMax = r.sampleSnapshots(r.sch.measured(), r.sch.end())
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, c := range conns {
		if err := c.drain(30 * time.Second); err != nil {
			return nil, err
		}
	}
	if err := r.failure(); err != nil {
		return nil, err
	}

	// Oracle: writes have stopped; one more fix per session, answers checked.
	for i, c := range conns {
		if err := r.finalFixes(c, i); err != nil {
			return nil, err
		}
	}
	if err := r.failure(); err != nil {
		return nil, err
	}
	res.mismatches = r.checkAnswers()
	if r.push != nil {
		res.mismatches = append(res.mismatches, r.checkReplica()...)
	}
	last, err := d.cl.Stats()
	if err != nil {
		return nil, err
	}
	if res.rssMB, err = d.rssPeakMB(); err != nil {
		return nil, err
	}
	res.first, res.before, res.after, res.last = *first, before, after, *last
	return res, nil
}

// oneConnClient is an HTTP client that never opens a second connection.
func oneConnClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = 1
	tr.MaxIdleConnsPerHost = 1
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// burst fills the store's mutation log before timing: burstFrames/2
// frames of inserts, then as many removing them again.
func (r *run) burst(c *conn) error {
	var inserted []index.Mutation
	for f := 0; f < burstFrames; f++ {
		var b api.IngestBatch
		b.WantResults = true
		for j := 0; j < burstSize; j++ {
			if f < burstFrames/2 {
				if r.w.network {
					v := r.model.freeVertex(r.wr.rng)
					r.model.reserveSite(v)
					b.Mutations = append(b.Mutations, index.Mutation{Insert: true, Network: true, ID: v})
				} else {
					p := geom.Pt(r.wr.rng.Float64()*spaceSide, r.wr.rng.Float64()*spaceSide)
					b.Mutations = append(b.Mutations, index.Mutation{Insert: true, P: p})
				}
				continue
			}
			m := inserted[0]
			inserted = inserted[1:]
			b.Mutations = append(b.Mutations, index.Mutation{Network: m.Network, ID: m.ID})
		}
		if r.trace != nil {
			r.trace.record(&req{kind: kindBurst}, b)
		}
		c.mu.Lock()
		c.nextSeq++ // Call takes the sequence number; keep send's count in step
		c.mu.Unlock()
		ack, err := c.in.Call(b)
		if err != nil {
			return err
		}
		if ack.Code != api.CodeOK || len(ack.MutationIDs) != len(b.Mutations) {
			return fmt.Errorf("burst frame: %s: %s", ack.Code, ack.Message)
		}
		for j, m := range b.Mutations {
			id := ack.MutationIDs[j]
			switch {
			case m.Insert && m.Network:
				r.model.setSite(id, true)
				inserted = append(inserted, m)
			case m.Insert:
				if err := r.model.insertPlane(id, m.P); err != nil {
					return err
				}
				inserted = append(inserted, index.Mutation{ID: id})
			case m.Network:
				r.model.setSite(id, false)
			default:
				r.model.removePlane(id)
			}
		}
	}
	return nil
}

// finalFixes sends one more fix for every session in the connection's
// group and waits for the answers.
func (r *run) finalFixes(c *conn, group int) error {
	var idx []int
	var b api.IngestBatch
	flush := func() error {
		if len(idx) == 0 {
			return nil
		}
		b.WantResults = true
		err := c.send(&req{kind: kindFix, phase: phaseFinal, due: time.Now(), sessions: idx}, b)
		idx, b = nil, api.IngestBatch{}
		return err
	}
	for i := range r.f.sids {
		if r.f.group(i) != group {
			continue
		}
		r.f.step(i, &b)
		idx = append(idx, i)
		if len(idx) == r.w.frameFixes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	return c.drain(30 * time.Second)
}

// checkAnswers compares every session's final answer with brute force.
func (r *run) checkAnswers() []string {
	var bad []string
	for i := range r.f.sids {
		ids, ok := r.final[i]
		var err error
		switch {
		case !ok:
			err = errors.New("no final answer")
		case r.w.network:
			err = r.model.checkNetwork(r.f.netPos[i], r.w.k, ids)
		default:
			err = r.model.checkPlane(r.f.pos[i], r.w.k, ids)
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("session %d: %v", r.f.sids[i], err))
		}
	}
	return bad
}

// checkReplica waits for the SSE stream to deliver the final answers and
// compares each watched session's delta-built replica with them.
func (r *run) checkReplica() []string {
	var bad []string
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < r.w.watched; i++ {
		sid := r.f.sids[i]
		for {
			if sameSet(r.push.replicaOf(sid), r.final[i]) {
				break
			}
			if time.Now().After(deadline) {
				bad = append(bad, fmt.Sprintf("session %d: SSE replica %v, final answer %v", sid, keys(r.push.replicaOf(sid)), r.final[i]))
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	r.push.mu.Lock()
	bad = append(bad, r.push.broken...)
	r.push.mu.Unlock()
	return bad
}

// result gathers one run's raw measurements; finish turns them into
// metrics.
type result struct {
	correct    bool
	setupS     []float64
	mismatches []string
	rssMB      float64

	first, last   api.StatsResponse
	before, after snapshot

	snapshotsMax float64
	layers       map[string]float64 // replay figures, traced runs only
	tracePath    string

	attempted, failed int64
	info              []metric // printed, but not part of the result line
	lateP50, lateP99  float64  // generator lateness, a run-validity figure
	steal             float64  // share of CPU time the hypervisor took, another
	metrics           []metric
}

type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the figure (0: a counter ratio)
}

func (res *result) add(name string, v float64, unit string, n int) {
	res.metrics = append(res.metrics, metric{name, v, unit, n})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windows returns the measured windows of one phase that the figures
// use: the half in which the hypervisor took the least CPU time from the
// machine (steal). Steal comes from other tenants of the host, so a
// window it spoilt measures the host rather than insqd.
func (r *run) windows(ph phase) []window {
	var out []window
	for _, w := range r.sch.windows {
		if w.phase == ph {
			out = append(out, w)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return r.stealIn(out[i]) < r.stealIn(out[j]) })
	return out[:(len(out)+1)/2]
}

func (r *run) stealIn(w window) uint64 { return r.marks[w.idx+1].steal - r.marks[w.idx].steal }

// stealShare is the share of the machine's CPU time the hypervisor
// took during the measured windows, a run-validity figure.
func (r *run) stealShare() float64 {
	ticks := float64(r.marks[len(r.marks)-1].steal - r.marks[1].steal)
	secs := r.sch.end().Sub(r.sch.measured()).Seconds()
	return ticks / (100 * secs * float64(runtime.NumCPU()))
}

// cpuIn is the daemon CPU time spent during window w.
func (r *run) cpuIn(w window) time.Duration {
	return r.marks[w.idx+1].cpu - r.marks[w.idx].cpu
}

// latency is the mid-mean over the used open windows of each window's
// q-quantile of fix frame latency, with the samples behind it.
func (r *run) latency(q float64) (float64, int) {
	var v []float64
	n := 0
	for _, w := range r.windows(phaseOpen) {
		v = append(v, r.win[w.idx].lat.quantileUS(q))
		n += r.win[w.idx].lat.count()
	}
	return midMean(v), n
}

// capacityRate is the mid-mean over the used capacity windows of fixes
// acked per second.
func (r *run) capacityRate() (float64, int) {
	var v []float64
	for _, w := range r.windows(phaseCapacity) {
		v = append(v, float64(r.win[w.idx].ok.Load())/w.end.Sub(w.start).Seconds())
	}
	return midMean(v), len(v)
}

// cpuPerOp is the mid-mean over the used open windows of daemon CPU
// microseconds per fix or write acked in the window.
func (r *run) cpuPerOp() (float64, int) {
	var v []float64
	n := 0
	for _, w := range r.windows(phaseOpen) {
		ops := r.win[w.idx].ok.Load()
		v = append(v, ratio(float64(r.cpuIn(w).Microseconds()), float64(ops)))
		n += int(ops)
	}
	return midMean(v), n
}

func (res *result) finish(r *run) {
	res.correct = len(res.mismatches) == 0
	res.attempted, res.failed = r.attempted.Load(), r.failedOps.Load()
	res.lateP50, res.lateP99 = r.late.quantileUS(0.5), r.late.quantileUS(0.99)
	res.steal = r.stealShare()
	b, a := res.before.stats, res.after.stats
	updates := float64(a.Counters.Timestamps - b.Counters.Timestamps)
	if r.trace != nil {
		res.layerMetrics(r)
		return
	}
	res.add("setup_s", median(res.setupS), "s", len(res.setupS))
	// Latency and capacity swing with the host's CPU steal beyond any
	// bound, so they are per-layer metrics; an untraced run still prints
	// them, outside the result line, to show the tracing overhead.
	p50, n := r.latency(0.50)
	res.info = append(res.info, metric{"loc_rtt_p50_us", p50, "us", n})
	rate, n := r.capacityRate()
	res.info = append(res.info, metric{"loc_updates_per_s", rate, "1/s", n})
	cpu, n := r.cpuPerOp()
	res.add("server_cpu_us_per_op", cpu, "us", n)
	res.add("server_rss_peak_mb", res.rssMB, "MB", 1)
	res.add("recompute_per_update", ratio(float64(a.Counters.Recomputations-b.Counters.Recomputations), updates), "ratio", int(updates))
	res.add("shipped_per_update", ratio(float64(a.Counters.ObjectsShipped-b.Counters.ObjectsShipped), updates), "ratio", int(updates))
}

// print writes the human-readable table, then the JSON result line.
func (res *result) print(f *os.File, name string) {
	fmt.Fprintf(f, "workload %s: correct=%v attempted=%d failed=%d\n", name, res.correct, res.attempted, res.failed)
	for i, m := range res.mismatches {
		if i == 10 {
			fmt.Fprintf(f, "  ... %d more mismatches\n", len(res.mismatches)-i)
			break
		}
		fmt.Fprintf(f, "  MISMATCH %s\n", m)
	}
	fmt.Fprintf(f, "  generator lateness p50 %.1f us, p99 %.1f us; CPU steal %.1f%%\n", res.lateP50, res.lateP99, 100*res.steal)
	if res.tracePath != "" {
		fmt.Fprintf(f, "  spans written to %s\n", res.tracePath)
	}
	for _, m := range res.info {
		fmt.Fprintf(f, "  (%s %.4f %s n=%d, not gated)\n", m.name, m.value, m.unit, m.n)
	}
	out := map[string]any{}
	for _, m := range res.metrics {
		fmt.Fprintf(f, "  %-36s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	fmt.Fprintln(f, string(line))
}
