package core

import (
	"errors"
	"fmt"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/netvor"
	"repro/internal/roadnet"
)

// ErrDisconnected is returned when the query position cannot reach k
// objects on the network.
var ErrDisconnected = errors.New("core: query position cannot reach k objects")

// NetworkQuery is the INS-based moving kNN query in road networks
// (Section IV of the paper). The data objects are the sites of a network
// Voronoi diagram; the query object moves along the network and reports a
// position (edge + fraction) at every timestamp.
//
// Validation follows Theorem 2: instead of running shortest-path searches
// on the full network, the processor keeps the subnetwork covered by the
// Voronoi cells of the guard objects R ∪ I(R) and ranks the guard objects
// on it. While the top-k on the subnetwork equals the current kNN set, the
// kNN set is valid on the full network.
//
// Like PlaneQuery, NewNetworkQuery reads a diagram the caller owns and
// NewNetworkQueryPinned pins the immutable snapshots of an index.Store
// shared with other sessions. Site writes reach a query only through that
// store: every Update lazily re-pins to the newest snapshot, invalidating
// the client state only when a skipped site write could disturb its guard
// cells.
type NetworkQuery struct {
	pin
	d   index.NetworkBackend
	k   int
	rho float64
	m   metrics.Counters

	init    bool
	located bool // Update has been called at least once; last is meaningful
	last    roadnet.Position
	r       []int // prefetched ⌊ρk⌋ nearest sites, ascending network distance at fetch
	ins     []int // I(R) under the network Voronoi diagram
	guard   []int // r ∪ ins
	sub     *netvor.Subnetwork
	knn     []int // current kNN set

	// Reusable per-query working memory mirroring PlaneQuery: the Dijkstra
	// scratch of every network search plus the backing buffers r/ins/guard/
	// knn alias into. Slices returned by Update are rewritten by the next
	// Update/Sync/Refresh — the package's slice-ownership contract. sc
	// defaults to the session-owned ownSc; UseScratch swaps in a shared
	// (e.g. per-shard) scratch so its dense arrays are paid for once, not
	// per session. subBuf retains the extracted subnetwork's storage across
	// Invalidate so recomputes stop allocating.
	sc       *netvor.SearchScratch
	ownSc    netvor.SearchScratch
	subBuf   *netvor.Subnetwork
	setBuf   map[int]int
	rBuf     []int
	insBuf   []int
	guardBuf []int
	knnBuf   []int
	topkBuf  []int
	rankBuf  []int
	dsBuf    []float64
}

// NewNetworkQuery creates a read-only INS MkNN query over a network
// Voronoi diagram the caller owns. Parameters mirror NewPlaneQuery.
func NewNetworkQuery(d *netvor.Diagram, k int, rho float64) (*NetworkQuery, error) {
	return newNetworkQuery(d, k, rho)
}

// NewNetworkQueryPinned creates an INS MkNN query served from a shared
// index store's network backend. The query pins the current snapshot and
// re-pins lazily at each Update, replaying the store's mutation log over
// its guard sets exactly like the plane side; call Close when the session
// ends so old snapshots can be collected.
func NewNetworkQueryPinned(st *index.Store, k int, rho float64) (*NetworkQuery, error) {
	if !st.HasNetwork() {
		return nil, errors.New("core: no road network configured")
	}
	p, err := pinStore(st)
	if err != nil {
		return nil, err
	}
	q, err := newNetworkQuery(p.snap.Network(), k, rho)
	if err != nil {
		p.Close()
		return nil, err
	}
	q.pin = p
	return q, nil
}

func newNetworkQuery(d index.NetworkBackend, k int, rho float64) (*NetworkQuery, error) {
	if err := validateParams(k, rho); err != nil {
		return nil, err
	}
	if d.Len() < k {
		return nil, fmt.Errorf("core: k = %d exceeds site count %d", k, d.Len())
	}
	q := &NetworkQuery{d: d, k: k, rho: rho}
	q.sc = &q.ownSc
	return q, nil
}

// UseScratch makes the query run its network searches through the given
// shared scratch instead of its own. The serving engine passes one scratch
// per shard: a shard's sessions run serially on its worker goroutine, so
// sharing is race-free and the scratch's dense per-vertex arrays (sized by
// the road network) are allocated once per shard rather than per session.
func (q *NetworkQuery) UseScratch(sc *netvor.SearchScratch) {
	if sc != nil {
		q.sc = sc
	}
}

// Name identifies the processor in simulation reports.
func (q *NetworkQuery) Name() string { return "ins-network" }

// K returns the query parameter k.
func (q *NetworkQuery) K() int { return q.k }

// Metrics returns the accumulated cost counters.
func (q *NetworkQuery) Metrics() *metrics.Counters { return &q.m }

// AppendCurrent appends the current kNN set onto dst — the zero-copy
// accessor for callers that own a reusable buffer.
func (q *NetworkQuery) AppendCurrent(dst []int) []int { return append(dst, q.knn...) }

// Current returns the current kNN set as a fresh copy; see the package
// slice-ownership contract.
func (q *NetworkQuery) Current() []int { return append([]int(nil), q.knn...) }

// INS returns I(R) as a fresh copy.
func (q *NetworkQuery) INS() []int { return append([]int(nil), q.ins...) }

// Prefetched returns R as a fresh copy.
func (q *NetworkQuery) Prefetched() []int { return append([]int(nil), q.r...) }

// Subnetwork returns the current Theorem-2 validation subnetwork. Its
// storage is reused by the next recomputation — read it before the next
// Update/Refresh, per the package's slice-ownership contract.
func (q *NetworkQuery) Subnetwork() *netvor.Subnetwork { return q.sub }

// Sync re-pins a snapshot-backed query to the newest published snapshot
// (a no-op for raw-diagram queries and when already current). If any
// network-site mutation between the pinned and the newest epoch can
// disturb the query's guard cells — the new site's cell touches a guard
// member's, the site lands inside the Theorem-2 subnetwork, or a removed
// site participates in (or neighbors) the guard set — the client state is
// invalidated and the next Update recomputes; otherwise the existing state
// carries over unchanged. Plane ops in the shared log are skipped: they
// cannot affect a network session.
func (q *NetworkQuery) Sync() {
	next, invalidate := q.repin(q.init, q.affectedBy)
	if next == nil {
		return
	}
	q.d = next.Network()
	if invalidate {
		q.Invalidate()
	}
}

// affectedBy is the network query's op-log predicate, evaluated against
// the still-pinned old snapshot's guard state, where every guard site is
// live.
func (q *NetworkQuery) affectedBy(op index.Op) bool {
	switch {
	case !op.Network:
		return false
	case op.Conservative:
		return true
	case op.Insert:
		return q.AffectedBySiteInsert(op.ID, op.Neighbors)
	default:
		return q.AffectedBySiteRemove(op.ID, op.Neighbors)
	}
}

// Refresh turns lazy invalidation into eager repair: it re-pins via Sync
// and, when that invalidated the client state (a skipped site mutation
// disturbed the guard cells), immediately recomputes at the last reported
// position instead of waiting for the next location update. recomputed
// reports whether a recomputation ran; the kNN slice aliases internal
// state under the same contract as Update. The serving engine calls it on
// epoch notifications for sessions with push subscribers.
func (q *NetworkQuery) Refresh() (knn []int, recomputed bool, err error) {
	q.Sync()
	if q.init || !q.located {
		return q.knn, false, nil
	}
	if err := q.recompute(q.last); err != nil {
		return nil, false, err
	}
	q.init = true
	return q.knn, true, nil
}

// Invalidate discards the client-side state (R, I(R), the subnetwork and
// the kNN set) so the next Update performs a full recomputation.
func (q *NetworkQuery) Invalidate() {
	q.init = false
	q.r, q.ins, q.guard, q.knn, q.sub = nil, nil, nil, nil, nil
}

// UsesSite reports whether vertex v participates in the query's guard set
// R ∪ I(R); removing such a site invalidates the client state.
func (q *NetworkQuery) UsesSite(v int) bool {
	for _, s := range q.guard {
		if s == v {
			return true
		}
	}
	return false
}

// AffectedBySiteInsert reports whether a site just inserted at vertex v
// (with its post-insert network Voronoi neighbor list) can change this
// query's prefetched state: it carved territory adjacent to a guard cell
// (any guard member in its neighbor list — capturing territory from a
// guard member always creates that adjacency) or it landed inside the
// Theorem-2 subnetwork, the region every candidate closer than the guard
// radius must occupy. The caller supplies the neighbor list so it is
// looked up once per mutation rather than once per session.
func (q *NetworkQuery) AffectedBySiteInsert(v int, neighbors []int) bool {
	if !q.init {
		return false
	}
	if neighbors == nil {
		return true // unknown adjacency: be conservative
	}
	if q.sub != nil {
		if _, ok := q.sub.ToSub[v]; ok {
			return true
		}
	}
	return q.intersectsGuard(neighbors)
}

// AffectedBySiteRemove reports whether removing the site at vertex v (with
// its pre-removal neighbor list) can change this query's state: the site
// participated in the guard set, or its territory is inherited by a guard
// member (whose cell then grows past the materialized subnetwork).
func (q *NetworkQuery) AffectedBySiteRemove(v int, neighbors []int) bool {
	if !q.init {
		return false
	}
	if q.UsesSite(v) {
		return true
	}
	if neighbors == nil {
		return true
	}
	return q.intersectsGuard(neighbors)
}

// intersectsGuard reports whether any of the listed sites is a guard
// member. Both lists are O(k); no map needed.
func (q *NetworkQuery) intersectsGuard(sites []int) bool {
	for _, s := range sites {
		for _, g := range q.guard {
			if s == g {
				return true
			}
		}
	}
	return false
}

func (q *NetworkQuery) prefetchSize() int {
	m := int(q.rho * float64(q.k))
	if m < q.k {
		m = q.k
	}
	if n := q.d.Len(); m > n {
		m = n
	}
	return m
}

// Update processes a location update and returns the current kNN set
// (shared slice; do not modify).
func (q *NetworkQuery) Update(pos roadnet.Position) ([]int, error) {
	q.Sync()
	q.m.Timestamps++
	if err := pos.Validate(q.d.Graph()); err != nil {
		return nil, err
	}
	q.last = pos
	q.located = true
	if !q.init {
		if err := q.recompute(pos); err != nil {
			return nil, err
		}
		q.init = true
		return q.knn, nil
	}

	q.m.Validations++
	// One bounded Dijkstra on the guard subnetwork, stopped as soon as k
	// guard objects are settled; Theorem 2 certifies the kNN set when the
	// subnetwork top-k matches it. This is the common, cheap path.
	relaxBefore := q.sub.G.EdgeRelaxations()
	topK, ds := q.sub.AppendKNNSites(pos, q.guard, q.k, q.topkBuf[:0], q.dsBuf[:0], q.sc)
	q.topkBuf, q.dsBuf = topK, ds
	q.m.DijkstraRuns++
	q.m.EdgeRelaxations += q.sub.G.EdgeRelaxations() - relaxBefore
	if len(topK) >= q.k && q.sameSet(topK, q.knn) {
		return q.knn, nil
	}
	q.m.Invalidations++

	// Stale: rank the whole prefetched set to see whether R survived.
	relaxBefore = q.sub.G.EdgeRelaxations()
	ranked, ds2 := q.sub.AppendKNNSites(pos, q.guard, len(q.r), q.rankBuf[:0], q.dsBuf[:0], q.sc)
	q.rankBuf, q.dsBuf = ranked, ds2
	q.m.DijkstraRuns++
	q.m.EdgeRelaxations += q.sub.G.EdgeRelaxations() - relaxBefore

	// Update cases (i)/(ii): if R as a whole is still the valid prefetch
	// set, the subnetwork distances to its members are exact and the new
	// kNN set is the subnetwork top-k — composed locally, no
	// recomputation.
	if len(ranked) >= len(q.r) && q.sameSet(ranked[:len(q.r)], q.r) {
		q.knnBuf = append(q.knnBuf[:0], ranked[:q.k]...)
		q.knn = q.knnBuf
		return q.knn, nil
	}
	if err := q.recompute(pos); err != nil {
		return nil, err
	}
	return q.knn, nil
}

// recompute fetches R and I(R) with incremental network expansion on the
// full network and rebuilds the Theorem-2 subnetwork.
func (q *NetworkQuery) recompute(pos roadnet.Position) error {
	if q.d.Len() < q.k {
		return fmt.Errorf("core: k = %d exceeds site count %d", q.k, q.d.Len())
	}
	q.m.Recomputations++
	m := q.prefetchSize()
	ids, ds, relaxed := q.d.AppendKNN(pos, m, q.rBuf[:0], q.dsBuf[:0], q.sc)
	q.rBuf, q.dsBuf = ids, ds
	q.m.DijkstraRuns++
	q.m.EdgeRelaxations += relaxed
	if len(ids) < q.k {
		return fmt.Errorf("%w: found %d of %d", ErrDisconnected, len(ids), q.k)
	}
	q.r = ids
	ins, err := q.d.AppendINS(q.r, q.insBuf[:0], q.sc)
	if err != nil {
		return fmt.Errorf("core: network INS: %w", err)
	}
	q.insBuf, q.ins = ins, ins
	guard := append(q.guardBuf[:0], q.r...)
	guard = append(guard, q.ins...)
	q.guardBuf, q.guard = guard, guard
	q.subBuf = q.d.SubnetworkInto(q.guard, q.subBuf, q.sc)
	q.sub = q.subBuf
	q.knn = q.r[:q.k]
	q.m.ObjectsShipped += len(q.r) + len(q.ins)
	return nil
}

// sameSet reports set equality of two id lists using the query's reusable
// membership scratch, so the per-update validation allocates nothing. At
// kNN sizes (k, or the prefetch m) a quadratic scan beats hashing, so the
// map only backs lists longer than a cache line's worth of ids.
func (q *NetworkQuery) sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) <= 32 {
	outer:
		for _, x := range b {
			for _, y := range a {
				if x == y {
					continue outer
				}
			}
			return false
		}
		return true
	}
	if q.setBuf == nil {
		q.setBuf = make(map[int]int, len(a))
	} else {
		clear(q.setBuf)
	}
	for _, x := range a {
		q.setBuf[x]++
	}
	for _, x := range b {
		if q.setBuf[x] == 0 {
			return false
		}
		q.setBuf[x]--
	}
	return true
}
