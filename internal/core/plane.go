package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/vortree"
)

// ErrEmptyIndex is returned when a query is issued against an index with no
// objects.
var ErrEmptyIndex = errors.New("core: no data objects")

// PlaneQuery is an INS-based moving kNN query in 2D Euclidean space. It is
// created once per query and fed the query object's location at every
// timestamp via Update. It is not safe for concurrent use.
//
// NewPlaneQuery reads a VoR-tree the caller owns; NewPlaneQueryPinned pins
// the immutable snapshots of an index.Store shared with other sessions.
// Data updates reach a query only through that store: every Update lazily
// re-pins to the newest snapshot, replaying the store's op log to
// invalidate the client state only when a skipped write touched the
// guard set (see pin).
type PlaneQuery struct {
	pin
	ix  index.PlaneBackend
	k   int
	rho float64
	m   metrics.Counters

	init          bool
	located       bool // Update has been called at least once; lastPos is meaningful
	lastPos       geom.Point
	disableRerank bool
	r             []int // prefetched ⌊ρk⌋ nearest objects, ascending distance at fetch time
	ins           []int // I(R): influential neighbor set of R
	knn           []int // current kNN set, ascending distance as of the last re-rank

	// Reusable per-query working memory: the serving hot path processes
	// millions of Updates, so validation, re-rank and recomputation all run
	// against these buffers instead of allocating. r/ins/knn above alias
	// into them; the slices returned by Update are rewritten by the next
	// Update/Sync/Refresh, which is the package's slice-ownership contract.
	search vortree.SearchScratch
	inKNN  map[int]bool // knnValid membership scratch
	rank   rankBuf      // rerank scratch (ids sorted by cached distance)
	rBuf   []int        // backing for r (and the knn prefix)
	insBuf []int        // backing for ins
}

// rankBuf sorts object ids by a cached distance key. It implements
// sort.Interface on a field of PlaneQuery so re-ranking allocates nothing.
type rankBuf struct {
	ids []int
	d   []float64
}

func (r *rankBuf) Len() int { return len(r.ids) }
func (r *rankBuf) Less(i, j int) bool {
	if r.d[i] != r.d[j] {
		return r.d[i] < r.d[j]
	}
	return r.ids[i] < r.ids[j]
}
func (r *rankBuf) Swap(i, j int) {
	r.ids[i], r.ids[j] = r.ids[j], r.ids[i]
	r.d[i], r.d[j] = r.d[j], r.d[i]
}

// NewPlaneQuery creates a read-only INS MkNN query over a VoR-tree index
// the caller owns. k must be at least 1 and the prefetch ratio rho at
// least 1 (rho == 1 disables prefetching; the paper's demo uses rho = 1.6).
func NewPlaneQuery(ix *vortree.Index, k int, rho float64) (*PlaneQuery, error) {
	if err := validateParams(k, rho); err != nil {
		return nil, err
	}
	return &PlaneQuery{ix: ix, k: k, rho: rho}, nil
}

// NewPlaneQueryPinned creates an INS MkNN query served from the immutable
// snapshots of a shared index store. The query pins the current snapshot
// and re-pins lazily at each Update; call Close when the session ends so
// old snapshots can be collected.
func NewPlaneQueryPinned(st *index.Store, k int, rho float64) (*PlaneQuery, error) {
	if err := validateParams(k, rho); err != nil {
		return nil, err
	}
	if !st.HasPlane() {
		return nil, fmt.Errorf("core: %w", index.ErrNoPlane)
	}
	p, err := pinStore(st)
	if err != nil {
		return nil, err
	}
	return &PlaneQuery{pin: p, ix: p.snap.Plane(), k: k, rho: rho}, nil
}

func validateParams(k int, rho float64) error {
	if k < 1 {
		return fmt.Errorf("core: k = %d, must be >= 1", k)
	}
	if rho < 1 {
		return fmt.Errorf("core: prefetch ratio rho = %g, must be >= 1", rho)
	}
	return nil
}

// Name identifies the processor in simulation reports.
func (q *PlaneQuery) Name() string { return "ins" }

// K returns the query parameter k.
func (q *PlaneQuery) K() int { return q.k }

// Rho returns the prefetch ratio.
func (q *PlaneQuery) Rho() float64 { return q.rho }

// Metrics returns the accumulated cost counters.
func (q *PlaneQuery) Metrics() *metrics.Counters { return &q.m }

// SetDisableLocalRerank turns off the local repair of a stale kNN set from
// the prefetched set (update cases (i)/(ii)); every invalidation then
// triggers a full recomputation. This exists for the ablation benchmark
// that measures what the incremental update path is worth.
func (q *PlaneQuery) SetDisableLocalRerank(v bool) { q.disableRerank = v }

// Current returns the current kNN set (ascending distance as of the last
// re-rank) as a fresh copy; see the package slice-ownership contract.
func (q *PlaneQuery) Current() []int { return append([]int(nil), q.knn...) }

// AppendCurrent appends the current kNN set onto dst and returns it — the
// zero-copy accessor for callers that own a reusable buffer (the engine
// shards and the stream broker). The copying accessors remain the public
// facade's contract.
func (q *PlaneQuery) AppendCurrent(dst []int) []int { return append(dst, q.knn...) }

// AppendPrefetched appends the prefetched set R onto dst.
func (q *PlaneQuery) AppendPrefetched(dst []int) []int { return append(dst, q.r...) }

// AppendINS appends I(R) onto dst.
func (q *PlaneQuery) AppendINS(dst []int) []int { return append(dst, q.ins...) }

// Sync re-pins a snapshot-backed query to the newest published snapshot
// (a no-op for raw-index queries and when already current). If any data
// update between the pinned and the newest epoch can affect the query's
// guard sets — the inserted object lands inside or adjacent to the
// prefetched set, or a removed object participates in it — the client
// state is invalidated and the next Update recomputes; otherwise the
// existing state carries over unchanged, which is the paper's lazy
// invalidation applied at re-pin time. Update calls Sync automatically;
// the serving engine also calls it on epoch notifications so dormant
// sessions release old snapshots promptly.
func (q *PlaneQuery) Sync() {
	next, invalidate := q.repin(q.init, q.affectedBy)
	if next == nil {
		return
	}
	q.ix = next.Plane()
	if invalidate {
		q.Invalidate()
	}
}

// affectedBy is the plane query's op-log predicate. Site ops cannot
// affect a plane session.
func (q *PlaneQuery) affectedBy(op index.Op) bool {
	switch {
	case op.Network:
		return false
	case op.Conservative:
		return true
	case op.Insert:
		return q.AffectedByInsert(op.ID, op.P, op.Neighbors)
	default:
		return q.UsesObject(op.ID)
	}
}

// Refresh turns lazy invalidation into eager repair: it re-pins via Sync
// and, when that invalidated the client state (a skipped data update
// touched the guard sets), immediately recomputes at the last reported
// position instead of waiting for the next location update. recomputed
// reports whether a recomputation ran; the kNN slice aliases internal
// state under the same contract as Update (rewritten by the next
// Update/Sync/Refresh — copy before retaining or crossing goroutines).
//
// The serving engine calls it on epoch notifications for sessions with
// push subscribers, so a subscriber observes the post-update kNN without
// the client ever polling. Sessions that never reported a position have
// nothing to recompute and return recomputed=false.
func (q *PlaneQuery) Refresh() (knn []int, recomputed bool, err error) {
	q.Sync()
	if q.init || !q.located {
		return q.knn, false, nil
	}
	if err := q.recompute(q.lastPos); err != nil {
		return nil, false, err
	}
	q.init = true
	return q.knn, true, nil
}

// InfluenceSet returns the current client-side guard set
// IS = (R ∪ I(R)) \ kNN, the objects whose approach invalidates the kNN
// set. The result is freshly allocated.
func (q *PlaneQuery) InfluenceSet() []int {
	inKNN := make(map[int]bool, len(q.knn))
	for _, id := range q.knn {
		inKNN[id] = true
	}
	out := make([]int, 0, len(q.r)+len(q.ins))
	for _, id := range q.r {
		if !inKNN[id] {
			out = append(out, id)
		}
	}
	out = append(out, q.ins...)
	return out
}

// Prefetched returns the prefetched set R as a fresh copy.
func (q *PlaneQuery) Prefetched() []int { return append([]int(nil), q.r...) }

// INS returns I(R), the influential neighbor set of the prefetched set, as
// a fresh copy.
func (q *PlaneQuery) INS() []int { return append([]int(nil), q.ins...) }

// prefetchSize returns ⌊ρk⌋ clamped to [k, number of objects].
func (q *PlaneQuery) prefetchSize() int {
	m := int(q.rho * float64(q.k))
	if m < q.k {
		m = q.k
	}
	if n := q.ix.Len(); m > n {
		m = n
	}
	return m
}

// Update processes a location update of the query object and returns the
// current kNN set (ascending distance at the time of the last re-rank).
// The returned slice is shared; callers must not modify it.
func (q *PlaneQuery) Update(p geom.Point) ([]int, error) {
	q.Sync()
	q.m.Timestamps++
	q.lastPos = p
	q.located = true
	if !q.init {
		if err := q.recompute(p); err != nil {
			return nil, err
		}
		q.init = true
		return q.knn, nil
	}

	q.m.Validations++
	if q.knnValid(p) {
		return q.knn, nil
	}
	q.m.Invalidations++

	// Update cases (i) and (ii) of Section III-B: the prefetched set R may
	// still be valid even though the kNN set is stale, in which case the
	// new kNN set is composed locally by re-ranking R — no communication.
	if !q.disableRerank && q.rValid(p) {
		q.rerank(p)
		return q.knn, nil
	}
	if err := q.recompute(p); err != nil {
		return nil, err
	}
	return q.knn, nil
}

// knnValid performs the Section III-A validation: scan the kNN set for the
// farthest member (r.delete) and the influential set for the nearest
// member (r.candidate); the kNN set is valid while r.delete is no farther
// than r.candidate.
func (q *PlaneQuery) knnValid(p geom.Point) bool {
	if q.inKNN == nil {
		q.inKNN = make(map[int]bool, len(q.knn))
	} else {
		clear(q.inKNN)
	}
	inKNN := q.inKNN
	var maxKNN float64
	for _, id := range q.knn {
		inKNN[id] = true
		if d := p.Dist2(q.ix.Point(id)); d > maxKNN {
			maxKNN = d
		}
	}
	q.m.DistanceCalcs += len(q.knn)
	minIS := -1.0
	check := func(id int) {
		if inKNN[id] {
			return
		}
		q.m.DistanceCalcs++
		if d := p.Dist2(q.ix.Point(id)); minIS < 0 || d < minIS {
			minIS = d
		}
	}
	for _, id := range q.r {
		check(id)
	}
	for _, id := range q.ins {
		check(id)
	}
	return minIS < 0 || maxKNN <= minIS
}

// rValid checks whether the prefetched set R is still the valid
// ⌊ρk⌋-NN set, using I(R) as its influential set.
func (q *PlaneQuery) rValid(p geom.Point) bool {
	var maxR float64
	for _, id := range q.r {
		q.m.DistanceCalcs++
		if d := p.Dist2(q.ix.Point(id)); d > maxR {
			maxR = d
		}
	}
	minINS := -1.0
	for _, id := range q.ins {
		q.m.DistanceCalcs++
		if d := p.Dist2(q.ix.Point(id)); minINS < 0 || d < minINS {
			minINS = d
		}
	}
	return minINS < 0 || maxR <= minINS
}

// rerank recomposes the kNN set from R by current distance (update cases
// (i) and (ii): the new kNN set is still inside R). Distances are computed
// once into the rank scratch, so the sort is allocation-free.
func (q *PlaneQuery) rerank(p geom.Point) {
	rb := &q.rank
	rb.ids = append(rb.ids[:0], q.r...)
	rb.d = rb.d[:0]
	for _, id := range rb.ids {
		rb.d = append(rb.d, p.Dist2(q.ix.Point(id)))
	}
	sort.Sort(rb)
	q.m.DistanceCalcs += len(rb.ids)
	q.knn = rb.ids[:q.k]
}

// recompute performs the server-side computation: fetch the ⌊ρk⌋ nearest
// objects and their influential neighbor set, and ship both to the client.
func (q *PlaneQuery) recompute(p geom.Point) error {
	if q.ix.Len() == 0 {
		return ErrEmptyIndex
	}
	if q.ix.Len() < q.k {
		return fmt.Errorf("core: k = %d exceeds object count %d", q.k, q.ix.Len())
	}
	q.m.Recomputations++
	m := q.prefetchSize()
	r, visits := q.ix.AppendKNN(p, m, q.rBuf[:0], &q.search)
	q.rBuf, q.r = r, r
	q.m.NodeVisits += visits
	ins, err := q.ix.AppendINS(q.r, q.insBuf[:0], &q.search)
	if err != nil {
		return fmt.Errorf("core: recompute INS: %w", err)
	}
	q.insBuf, q.ins = ins, ins
	q.knn = q.r[:q.k]
	q.m.ObjectsShipped += len(q.r) + len(q.ins)
	return nil
}

// Invalidate discards the client-side state (R, I(R) and the kNN set) so
// the next Update performs a full recomputation. The serving engine calls
// it when an index mutation applied outside this query (the index is shared
// by many sessions) may have changed the query's guard sets; the
// recomputation itself happens lazily at the session's next location
// update.
func (q *PlaneQuery) Invalidate() {
	q.init = false
	q.r, q.ins, q.knn = nil, nil, nil
}

// AffectedByInsert reports whether an object just inserted into the index
// (id at point p, with Voronoi neighbor list neighbors) can change this
// query's prefetched state: it lands closer than the farthest prefetched
// object or neighbors a prefetched object (otherwise neither R nor I(R)
// changes). The caller supplies the neighbor list so that it is looked up
// once per index mutation rather than once per query sharing the index.
func (q *PlaneQuery) AffectedByInsert(id int, p geom.Point, neighbors []int) bool {
	if !q.init {
		return false
	}
	var maxR float64
	for _, rid := range q.r {
		if rid == id {
			return true
		}
		if d := q.lastPos.Dist2(q.ix.Point(rid)); d > maxR {
			maxR = d
		}
	}
	if q.lastPos.Dist2(p) < maxR {
		return true
	}
	for _, u := range neighbors {
		for _, rid := range q.r { // both lists are O(k); no map needed
			if rid == u {
				return true
			}
		}
	}
	return false
}

// UsesObject reports whether id participates in the query's client-side
// state (the prefetched set R or its influential set I(R)); removing such
// an object from the index invalidates the state.
func (q *PlaneQuery) UsesObject(id int) bool {
	for _, rid := range q.r {
		if rid == id {
			return true
		}
	}
	for _, xid := range q.ins {
		if xid == id {
			return true
		}
	}
	return false
}
