package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	insqclient "repro/internal/client"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/roadnet"
)

// phase labels what a request was sent for; only some phases feed the
// reported figures.
type phase uint8

const (
	phaseWarm phase = iota
	phaseOpen
	phaseCapacity
	phaseFinal
)

type reqKind uint8

const (
	kindFix reqKind = iota
	kindInsert
	kindRemove
	kindBurst // warm-up mutation frame
)

// req is one frame in flight on an ingest connection.
type req struct {
	kind      reqKind
	phase     phase
	due, sent time.Time
	win       int   // schedule window the frame was due in
	sessions  []int // fleet indices of the fixes, in frame order
	muts      []index.Mutation
	write     int // write schedule index (inserts and removes)
}

// fleet is the benchmark's model of every session: where each one is
// and where it goes next. Sessions are split into disjoint groups, one
// per sending goroutine, so each group's positions and random stream are
// touched by one goroutine only and fixes for a session stay in order.
type fleet struct {
	w      *workload
	sids   []uint64
	bounds geom.Rect

	// Plane sessions: random-waypoint walkers.
	pos, target []geom.Point
	// Network sessions: distance travelled along a looping route.
	routes []*roadnet.Route
	along  []float64
	netPos []roadnet.Position

	rngs []*rand.Rand // one per group
}

func newFleet(w *workload, bounds geom.Rect, g *roadnet.Graph, seed int64) (*fleet, error) {
	f := &fleet{w: w, bounds: bounds, sids: make([]uint64, w.sessions)}
	groups := max(w.fixConns, 1)
	for c := 0; c < groups; c++ {
		f.rngs = append(f.rngs, rand.New(rand.NewSource(seed*7919+int64(c)+1)))
	}
	if w.network {
		rng := rand.New(rand.NewSource(seed + 3))
		f.routes = make([]*roadnet.Route, w.sessions)
		f.along = make([]float64, w.sessions)
		f.netPos = make([]roadnet.Position, w.sessions)
		for i := range f.routes {
			r, err := roadnet.RandomWalkRoute(g, rng.Intn(g.NumVertices()), 2000*w.stepLen, seed+int64(i)*31+5)
			if err != nil {
				return nil, err
			}
			f.routes[i] = r
			f.netPos[i] = r.PositionAt(0)
		}
		return f, nil
	}
	f.pos = make([]geom.Point, w.sessions)
	f.target = make([]geom.Point, w.sessions)
	for i := range f.pos {
		rng := f.rngs[f.group(i)]
		f.pos[i] = f.randPt(rng)
		f.target[i] = f.randPt(rng)
	}
	return f, nil
}

// group is the sending goroutine that owns session i: contiguous blocks,
// so every frame carries sessions of every engine shard.
func (f *fleet) group(i int) int { return i * len(f.rngs) / len(f.sids) }

func (f *fleet) randPt(rng *rand.Rand) geom.Point {
	return geom.Pt(f.bounds.Min.X+rng.Float64()*f.bounds.Width(), f.bounds.Min.Y+rng.Float64()*f.bounds.Height())
}

// step advances session i by one fix and appends that fix to b.
func (f *fleet) step(i int, b *api.IngestBatch) {
	if f.w.network {
		f.along[i] += f.w.stepLen
		r := f.routes[i]
		f.netPos[i] = r.PositionAt(math.Mod(f.along[i], r.Length()))
		p := f.netPos[i]
		b.NetworkUpdates = append(b.NetworkUpdates, api.NetworkUpdateEntry{Session: f.sids[i], U: p.U, V: p.V, T: p.T})
		return
	}
	for {
		d := f.target[i].Sub(f.pos[i])
		if n := d.Norm(); n >= f.w.stepLen {
			f.pos[i] = f.pos[i].Add(d.Scale(f.w.stepLen / n))
			break
		}
		f.target[i] = f.randPt(f.rngs[f.group(i)])
	}
	p := f.pos[i]
	b.Updates = append(b.Updates, api.UpdateEntry{Session: f.sids[i], X: p.X, Y: p.Y})
}

// place appends session i's current position without moving it.
func (f *fleet) place(i int, b *api.IngestBatch) {
	if f.w.network {
		p := f.netPos[i]
		b.NetworkUpdates = append(b.NetworkUpdates, api.NetworkUpdateEntry{Session: f.sids[i], U: p.U, V: p.V, T: p.T})
		return
	}
	b.Updates = append(b.Updates, api.UpdateEntry{Session: f.sids[i], X: f.pos[i].X, Y: f.pos[i].Y})
}

// conn is one binary ingest connection. One goroutine at a time sends
// on it, so the next sequence number is known before Send assigns it and
// the request can be registered before its ack can arrive.
type conn struct {
	r        *run
	in       *insqclient.Ingest
	mu       sync.Mutex
	pending  map[uint64]*req
	nextSeq  uint64
	slots    chan struct{} // closed-loop window; a slot frees on each ack
	done     chan struct{} // closed when the ack reader exits
	inFlight sync.WaitGroup
}

func dialConn(ctx context.Context, r *run, addr string, window int) (*conn, error) {
	in, err := insqclient.DialIngestTCP(ctx, addr, 0)
	if err != nil {
		return nil, err
	}
	c := &conn{r: r, in: in, pending: make(map[uint64]*req),
		slots: make(chan struct{}, window), done: make(chan struct{})}
	go c.readAcks()
	return c, nil
}

// send registers q and writes its frame.
func (c *conn) send(q *req, b api.IngestBatch) error {
	if c.r.trace != nil && q.phase != phaseFinal {
		c.r.trace.record(q, b)
	}
	q.sent = time.Now()
	c.mu.Lock()
	c.nextSeq++
	seq := c.nextSeq
	c.pending[seq] = q
	c.mu.Unlock()
	c.inFlight.Add(1)
	got, err := c.in.Send(b)
	if err != nil {
		return fmt.Errorf("ingest send: %w", err)
	}
	if got != seq {
		return fmt.Errorf("ingest send: seq %d, want %d", got, seq)
	}
	return nil
}

func (c *conn) readAcks() {
	defer close(c.done)
	for ack := range c.in.Acks() {
		now := time.Now()
		c.mu.Lock()
		q := c.pending[ack.Seq]
		delete(c.pending, ack.Seq)
		c.mu.Unlock()
		if q == nil {
			c.r.fail(fmt.Errorf("ack for unknown seq %d (code %s: %s)", ack.Seq, ack.Code, ack.Message))
			continue
		}
		if q.phase == phaseCapacity && q.kind == kindFix {
			<-c.slots
		}
		c.r.onAck(q, ack, now)
		c.inFlight.Done()
	}
}

// drain waits until every sent frame is acked or the stream dies.
func (c *conn) drain(timeout time.Duration) error {
	idle := make(chan struct{})
	go func() {
		c.inFlight.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-c.done:
		return fmt.Errorf("ingest stream ended with frames unacked: %v", c.in.Err())
	case <-time.After(timeout):
		return fmt.Errorf("ingest: frames unacked after %v", timeout)
	}
}

// close half-closes the stream, waits for the ack reader to exit and
// reports a stream error.
func (c *conn) close() error {
	err := c.in.Close()
	<-c.done
	return err
}

// sleepUntil sleeps until t (returns at once when t has passed). It
// sleeps in nanosleep rather than time.Sleep: the runtime's timers wake
// up to a millisecond late on an idle process, which would pace the open
// loop in bursts. Callers pin their thread with precisePacing first.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// precisePacing pins the calling goroutine to its thread and cuts the
// thread's timer slack from the default 50µs to 1µs, so sleepUntil wakes
// within tens of microseconds. The thread stays pinned until the
// goroutine exits, and is then discarded with its changed setting.
func precisePacing() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
}

// window is one stretch of the run with one load shape: the warm-up,
// then open-loop and capacity windows alternating, so that every figure
// is sampled across the whole run and a short disturbance on the machine
// spoils one window's figure rather than the run's.
type window struct {
	phase      phase
	idx        int // position in schedule.windows
	start, end time.Time
}

type schedule struct {
	windows []window
}

func newSchedule(start time.Time, measured time.Duration) *schedule {
	sch := &schedule{}
	add := func(ph phase, d time.Duration) {
		sch.windows = append(sch.windows, window{phase: ph, idx: len(sch.windows), start: start, end: start.Add(d)})
		start = start.Add(d)
	}
	add(phaseWarm, warmFor)
	cycles := max(1, int(measured/cycleLen))
	cycle := measured / time.Duration(cycles)
	open := time.Duration(float64(cycle) * openShare)
	for i := 0; i < cycles; i++ {
		add(phaseOpen, open)
		add(phaseCapacity, cycle-open)
	}
	return sch
}

func (s *schedule) start() time.Time    { return s.windows[0].start }
func (s *schedule) measured() time.Time { return s.windows[1].start }
func (s *schedule) end() time.Time      { return s.windows[len(s.windows)-1].end }

// at returns the window holding t (the last one for t past the end).
func (s *schedule) at(t time.Time) window {
	for _, w := range s.windows {
		if t.Before(w.end) {
			return w
		}
	}
	return s.windows[len(s.windows)-1]
}

// driveIngest runs one ingest connection through every window: fix
// frames for its session group, open loop or closed loop by window, and,
// when writes ride this connection, write frames on their own open-loop
// schedule throughout.
func (r *run) driveIngest(c *conn, group int, withWrites bool) error {
	precisePacing()
	w := r.w
	mine := make([]int, 0, w.sessions/len(r.f.rngs)+1)
	for i := 0; i < w.sessions; i++ {
		if r.f.group(i) == group {
			mine = append(mine, i)
		}
	}
	cursor := 0
	sendFix := func(due time.Time, win window) error {
		q := &req{kind: kindFix, phase: win.phase, win: win.idx, due: due, sessions: make([]int, 0, w.frameFixes)}
		b := api.IngestBatch{WantResults: true}
		for len(q.sessions) < w.frameFixes {
			i := mine[cursor]
			cursor = (cursor + 1) % len(mine)
			r.f.step(i, &b)
			q.sessions = append(q.sessions, i)
		}
		return c.send(q, b)
	}
	fixIV := time.Duration(float64(time.Second) * float64(w.frameFixes*w.fixConns) / w.fixRate)
	dueWrite := farFuture
	var writeIV time.Duration
	if withWrites {
		writeIV = time.Duration(float64(time.Second) / w.writeRate)
		dueWrite = r.sch.start().Add(writeIV / 2)
	}
	writeDue := func() error {
		if err := r.sendWrite(c, dueWrite, r.sch.at(dueWrite)); err != nil {
			return err
		}
		dueWrite = dueWrite.Add(writeIV)
		return nil
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for _, win := range r.sch.windows {
		if win.phase != phaseCapacity {
			// Open loop: every frame has a due time, independent of acks.
			dueFix := win.start.Add(fixIV * time.Duration(group) / time.Duration(w.fixConns))
			for {
				due := dueFix
				if dueWrite.Before(due) {
					due = dueWrite
				}
				if !due.Before(win.end) {
					break
				}
				sleepUntil(due)
				var err error
				if due.Equal(dueWrite) {
					err = writeDue()
				} else {
					err = sendFix(due, win)
					dueFix = dueFix.Add(fixIV)
				}
				if err != nil {
					return err
				}
			}
			continue
		}
		// Capacity: keep a fixed window of fix frames in flight.
		for {
			now := time.Now()
			if !now.Before(win.end) {
				break
			}
			if !dueWrite.After(now) {
				if err := writeDue(); err != nil {
					return err
				}
				continue
			}
			wake := win.end
			if dueWrite.Before(wake) {
				wake = dueWrite
			}
			timer.Reset(time.Until(wake))
			select {
			case c.slots <- struct{}{}:
				if !timer.Stop() {
					<-timer.C
				}
				if err := sendFix(time.Now(), win); err != nil {
					return err
				}
			case <-timer.C:
			case <-c.done:
				return fmt.Errorf("ingest stream ended: %v", c.in.Err())
			}
		}
	}
	return nil
}

var farFuture = time.Unix(1<<40, 0)

// writer decides the write schedule for both write workloads: inserts
// near watched sessions (plane) or at free vertices (network), and
// removals of the insert made pool inserts earlier. The choice depends
// only on the schedule index and the seed, never on timing.
type writer struct {
	mu      sync.Mutex
	rng     *rand.Rand
	pool    int
	fifo    []int       // write indices of live inserts, oldest first
	ids     map[int]int // write index -> id the insert received (-1: failed)
	inserts int
	n       int
}

func newWriter(seed int64, pool int) *writer {
	return &writer{rng: rand.New(rand.NewSource(seed*104729 + 17)), pool: pool, ids: make(map[int]int)}
}

// nextWrite returns the next write: either an insert (the mutation to send)
// or a removal of an earlier insert, whose id it waits for.
func (r *run) nextWrite() (kind reqKind, m index.Mutation, idx int, err error) {
	wr := r.wr
	wr.mu.Lock()
	defer wr.mu.Unlock()
	idx = wr.n
	wr.n++
	if idx%2 == 1 && len(wr.fifo) >= wr.pool {
		head := wr.fifo[0]
		wr.fifo = wr.fifo[1:]
		deadline := time.Now().Add(5 * time.Second)
		for {
			if id, ok := wr.ids[head]; ok {
				delete(wr.ids, head)
				if id < 0 {
					break // the insert failed: insert again instead
				}
				return kindRemove, index.Mutation{ID: id, Network: r.w.network}, idx, nil
			}
			if time.Now().After(deadline) || r.failure() != nil {
				return 0, m, idx, fmt.Errorf("write %d: insert %d never acked", idx, head)
			}
			wr.mu.Unlock()
			time.Sleep(100 * time.Microsecond)
			wr.mu.Lock()
		}
	}
	wr.fifo = append(wr.fifo, idx)
	wr.inserts++
	if r.w.network {
		v := r.model.freeVertex(wr.rng)
		r.model.reserveSite(v)
		return kindInsert, index.Mutation{Insert: true, Network: true, ID: v}, idx, nil
	}
	// Plane: next to a watched session's last sent position.
	s := (wr.inserts - 1) % r.w.watched
	p := r.f.pos[s]
	p = geom.Pt(p.X+wr.rng.Float64()*2-1, p.Y+wr.rng.Float64()*2-1)
	p = geom.Pt(math.Min(math.Max(p.X, r.bounds.Min.X), r.bounds.Max.X), math.Min(math.Max(p.Y, r.bounds.Min.Y), r.bounds.Max.Y))
	return kindInsert, index.Mutation{Insert: true, P: p}, idx, nil
}

// insertAcked records the id an insert received.
func (wr *writer) insertAcked(idx, id int) {
	wr.mu.Lock()
	wr.ids[idx] = id
	wr.mu.Unlock()
}

// sendWrite sends the next scheduled write as its own ingest frame.
func (r *run) sendWrite(c *conn, due time.Time, win window) error {
	kind, m, idx, err := r.nextWrite()
	if err != nil {
		return err
	}
	return c.send(&req{kind: kind, phase: win.phase, win: win.idx, due: due, muts: []index.Mutation{m}, write: idx},
		api.IngestBatch{WantResults: true, Mutations: []index.Mutation{m}})
}

// driveJSONWrites runs the network workload's site writes as JSON
// requests on their own connection, one at a time, on the open-loop
// schedule.
func (r *run) driveJSONWrites(cl *insqclient.Client) error {
	precisePacing()
	sch := r.sch
	iv := time.Duration(float64(time.Second) / r.w.writeRate)
	for due := sch.start().Add(iv / 2); due.Before(sch.end()); due = due.Add(iv) {
		sleepUntil(due)
		kind, m, idx, err := r.nextWrite()
		if err != nil {
			return err
		}
		win := sch.at(due)
		q := &req{kind: kind, phase: win.phase, win: win.idx, due: due, muts: []index.Mutation{m}, write: idx, sent: time.Now()}
		if r.trace != nil {
			r.trace.record(q, api.IngestBatch{Mutations: q.muts})
		}
		var ack api.IngestAck
		if kind == kindInsert {
			_, err = cl.AddNetworkObject(m.ID)
			ack.MutationIDs = []int{m.ID}
		} else {
			err = cl.RemoveNetworkObject(m.ID)
		}
		ack.Code = api.CodeOK
		if err != nil {
			ack.Code, ack.Message = api.CodeInternal, err.Error()
		}
		r.onAck(q, ack, time.Now())
	}
	return nil
}

// pushTracker times inserts until a watched session's data event lists
// the new id as added, and keeps the client-side replica of every
// watched session's kNN set built from the event deltas.
type pushTracker struct {
	mu      sync.Mutex
	pending map[int]time.Time // insert id -> due time
	early   map[int]time.Time // data-event arrival for ids not yet acked
	lag     *samples          // filled only for inserts due in the open phase
	open    map[int]bool      // insert ids whose lag counts

	replica map[uint64]map[int]bool
	seq     map[uint64]uint64
	events  atomic.Uint64
	broken  []string // delta replays that disagreed with the event's own set
}

func newPushTracker() *pushTracker {
	return &pushTracker{
		pending: make(map[int]time.Time), early: make(map[int]time.Time),
		lag: &samples{}, open: make(map[int]bool),
		replica: make(map[uint64]map[int]bool), seq: make(map[uint64]uint64),
	}
}

func (p *pushTracker) onEvent(ev api.SessionEvent) {
	now := time.Now()
	p.events.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	if ev.Cause == "data" {
		for _, id := range ev.Added {
			if due, ok := p.pending[id]; ok {
				if p.open[id] {
					p.lag.add(now.Sub(due))
				}
				delete(p.pending, id)
				delete(p.open, id)
			} else if len(p.early) < 1<<16 {
				p.early[id] = now
			}
		}
	}
	if ev.Cause == "close" || ev.Cause == "bye" {
		return
	}
	prev := p.seq[ev.Session]
	p.seq[ev.Session] = ev.Seq
	set, ok := p.replica[ev.Session]
	if !ok || ev.Seq != prev+1 {
		// The first event, or a gap left by coalesced or dropped events,
		// re-baselines from the full set the event carries.
		set = make(map[int]bool, len(ev.KNN))
		for _, id := range ev.KNN {
			set[id] = true
		}
		p.replica[ev.Session] = set
		return
	}
	for _, id := range ev.Removed {
		delete(set, id)
	}
	for _, id := range ev.Added {
		set[id] = true
	}
	if !sameSet(set, ev.KNN) {
		p.broken = append(p.broken, fmt.Sprintf("session %d seq %d: deltas give %v, event carries %v",
			ev.Session, ev.Seq, keys(set), ev.KNN))
	}
}

// inserted registers an acked insert due at due; countLag marks inserts
// due in the open phase.
func (p *pushTracker) inserted(id int, due time.Time, countLag bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if at, ok := p.early[id]; ok {
		if countLag {
			p.lag.add(at.Sub(due))
		}
		delete(p.early, id)
		return
	}
	p.pending[id] = due
	if countLag {
		p.open[id] = true
	}
}

// removed forgets an insert that left before any watched session saw it.
func (p *pushTracker) removed(id int) {
	p.mu.Lock()
	delete(p.pending, id)
	delete(p.open, id)
	p.mu.Unlock()
}

func (p *pushTracker) replicaOf(sid uint64) map[int]bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]bool, len(p.replica[sid]))
	for id := range p.replica[sid] {
		out[id] = true
	}
	return out
}

func sameSet(set map[int]bool, ids []int) bool {
	if len(set) != len(ids) {
		return false
	}
	for _, id := range ids {
		if !set[id] {
			return false
		}
	}
	return true
}

func keys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	return out
}
