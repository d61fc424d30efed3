package main

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/roadnet"
)

// model is the benchmark's own copy of the live data objects, kept from
// the seed and the acknowledged writes. The oracle answers kNN from it by
// brute force, independently of every index the daemon uses.
type model struct {
	mu sync.Mutex
	// Plane objects by id; ids are dense from 0 as the daemon assigns them.
	pts  []geom.Point
	live []bool
	// Network sites by vertex; reserved marks vertices an unacked insert
	// is about to occupy, so no second insert picks them.
	g        *roadnet.Graph
	site     []bool
	reserved []bool
}

func newPlaneModel(objects []geom.Point) *model {
	m := &model{pts: append([]geom.Point(nil), objects...), live: make([]bool, len(objects))}
	for i := range m.live {
		m.live[i] = true
	}
	return m
}

func newNetworkModel(g *roadnet.Graph, sites []int) *model {
	m := &model{g: g, site: make([]bool, g.NumVertices()), reserved: make([]bool, g.NumVertices())}
	for _, v := range sites {
		m.site[v] = true
	}
	return m
}

func (m *model) insertPlane(id int, p geom.Point) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id < len(m.pts) {
		return fmt.Errorf("insert got id %d, already assigned", id)
	}
	for len(m.pts) < id {
		m.pts = append(m.pts, geom.Point{})
		m.live = append(m.live, false)
	}
	m.pts = append(m.pts, p)
	m.live = append(m.live, true)
	return nil
}

func (m *model) removePlane(id int) {
	m.mu.Lock()
	if id >= 0 && id < len(m.live) {
		m.live[id] = false
	}
	m.mu.Unlock()
}

func (m *model) setSite(v int, on bool) {
	m.mu.Lock()
	m.site[v] = on
	m.reserved[v] = false
	m.mu.Unlock()
}

func (m *model) reserveSite(v int) {
	m.mu.Lock()
	m.reserved[v] = true
	m.mu.Unlock()
}

// freeVertex draws a vertex that holds no site and is not reserved.
func (m *model) freeVertex(rng *rand.Rand) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		v := rng.Intn(len(m.site))
		if !m.site[v] && !m.reserved[v] {
			return v
		}
	}
}

// planeKNN returns the k smallest distances from q to live objects.
func (m *model) planeKNN(q geom.Point, k int) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	best := make([]float64, 0, k+1)
	for id, p := range m.pts {
		if !m.live[id] {
			continue
		}
		d := math.Hypot(p.X-q.X, p.Y-q.Y)
		if len(best) == k && d >= best[k-1] {
			continue
		}
		i := sort.SearchFloat64s(best, d)
		best = append(best, 0)
		copy(best[i+1:], best[i:])
		best[i] = d
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// planeDists maps an answer's ids to their distances from q, sorted.
func (m *model) planeDists(q geom.Point, ids []int) ([]float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]float64, 0, len(ids))
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= len(m.pts) || !m.live[id] || seen[id] {
			return nil, fmt.Errorf("object %d is not live or listed twice", id)
		}
		seen[id] = true
		p := m.pts[id]
		out = append(out, math.Hypot(p.X-q.X, p.Y-q.Y))
	}
	sort.Float64s(out)
	return out, nil
}

// netDistances runs Dijkstra from a position on the graph: its two edge
// endpoints seeded with their along-edge offsets.
func (m *model) netDistances(pos roadnet.Position) []float64 {
	g := m.g
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	h := &distHeap{}
	seed := func(v int, d float64) {
		if d < dist[v] {
			dist[v] = d
			heap.Push(h, distItem{v, d})
		}
	}
	if pos.U == pos.V || pos.T == 0 {
		seed(pos.U, 0)
	} else {
		w, _ := g.EdgeWeight(pos.U, pos.V)
		seed(pos.U, pos.T*w)
		seed(pos.V, (1-pos.T)*w)
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		g.VisitEdgesFrom(it.v, func(to int, w float64) {
			if nd := it.d + w; nd < dist[to] {
				dist[to] = nd
				heap.Push(h, distItem{to, nd})
			}
		})
	}
	return dist
}

// networkKNN returns the k smallest network distances to live sites and
// the distance of every vertex, to look answers up in.
func (m *model) networkKNN(pos roadnet.Position, k int) (best, dist []float64) {
	dist = m.netDistances(pos)
	m.mu.Lock()
	defer m.mu.Unlock()
	for v, on := range m.site {
		if on {
			best = append(best, dist[v])
		}
	}
	sort.Float64s(best)
	return best[:min(k, len(best))], dist
}

func (m *model) networkDists(dist []float64, ids []int) ([]float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]float64, 0, len(ids))
	seen := make(map[int]bool, len(ids))
	for _, v := range ids {
		if v < 0 || v >= len(m.site) || !m.site[v] || seen[v] {
			return nil, fmt.Errorf("site %d is not live or listed twice", v)
		}
		seen[v] = true
		out = append(out, dist[v])
	}
	sort.Float64s(out)
	return out, nil
}

type distItem struct {
	v int
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// compareDists checks an answer against brute force by sorted distance,
// so ties between equidistant objects cannot read as mismatches.
func compareDists(want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d neighbours, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9*math.Max(1, want[i]) {
			return fmt.Errorf("neighbour %d at distance %.9g, brute force has %.9g", i+1, got[i], want[i])
		}
	}
	return nil
}

// checkPlane checks one plane answer against brute force.
func (m *model) checkPlane(q geom.Point, k int, ids []int) error {
	got, err := m.planeDists(q, ids)
	if err != nil {
		return err
	}
	return compareDists(m.planeKNN(q, k), got)
}

// checkNetwork checks one network answer against brute force.
func (m *model) checkNetwork(pos roadnet.Position, k int, ids []int) error {
	want, dist := m.networkKNN(pos, k)
	got, err := m.networkDists(dist, ids)
	if err != nil {
		return err
	}
	return compareDists(want, got)
}

// oracleSelfCheck proves the checker rejects a wrong answer before it is
// trusted with the run's answers.
func oracleSelfCheck(m *model, k int, g *roadnet.Graph) error {
	if g != nil {
		pos := roadnet.VertexPosition(0)
		ids := m.bruteNetworkIDs(pos, k+1)
		if err := m.checkNetwork(pos, k, ids[:k]); err != nil {
			return fmt.Errorf("oracle self-check: true answer rejected: %w", err)
		}
		if m.checkNetwork(pos, k, append(ids[:k-1:k-1], ids[k])) == nil {
			return errors.New("oracle self-check: wrong answer accepted")
		}
		return nil
	}
	q := geom.Pt(spaceSide/2, spaceSide/2)
	ids := m.brutePlaneIDs(q, k+1)
	if err := m.checkPlane(q, k, ids[:k]); err != nil {
		return fmt.Errorf("oracle self-check: true answer rejected: %w", err)
	}
	if m.checkPlane(q, k, append(ids[:k-1:k-1], ids[k])) == nil {
		return errors.New("oracle self-check: wrong answer accepted")
	}
	return nil
}

// brutePlaneIDs lists the ids of the n nearest live objects to q.
func (m *model) brutePlaneIDs(q geom.Point, n int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []int
	for id, on := range m.live {
		if on {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		return m.pts[ids[a]].Dist(q) < m.pts[ids[b]].Dist(q)
	})
	return ids[:n]
}

// bruteNetworkIDs lists the n live sites nearest to pos.
func (m *model) bruteNetworkIDs(pos roadnet.Position, n int) []int {
	dist := m.netDistances(pos)
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []int
	for v, on := range m.site {
		if on {
			ids = append(ids, v)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return dist[ids[a]] < dist[ids[b]] })
	return ids[:n]
}
