package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/vortree"
)

var testBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))

func randomPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	return pts
}

func buildIndex(t testing.TB, n int, seed int64) *vortree.Index {
	t.Helper()
	ix, _, err := vortree.Build(testBounds, 16, randomPoints(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// checkKNNAgainstBrute compares a result set with ground truth by distance
// multiset, which tolerates ties between equally distant objects.
func checkKNNAgainstBrute(t *testing.T, ix *vortree.Index, p geom.Point, got []int, k int) {
	t.Helper()
	ids := ix.Diagram().IDs()
	dists := make([]float64, 0, len(ids))
	for _, id := range ids {
		dists = append(dists, p.Dist2(ix.Point(id)))
	}
	sort.Float64s(dists)
	if len(got) != k {
		t.Fatalf("result has %d ids, want %d", len(got), k)
	}
	gd := make([]float64, 0, k)
	seen := make(map[int]bool)
	for _, id := range got {
		if seen[id] {
			t.Fatalf("duplicate id %d in result %v", id, got)
		}
		seen[id] = true
		gd = append(gd, p.Dist2(ix.Point(id)))
	}
	sort.Float64s(gd)
	for i := 0; i < k; i++ {
		if math.Abs(gd[i]-dists[i]) > 1e-9*(dists[i]+1) {
			t.Fatalf("kNN distance[%d] = %g, want %g (result %v)", i, gd[i], dists[i], got)
		}
	}
}

// walkTrajectory yields random-waypoint positions inside bounds.
func walkTrajectory(steps int, stepLen float64, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pos := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	target := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	out := make([]geom.Point, 0, steps)
	for len(out) < steps {
		d := target.Sub(pos)
		n := d.Norm()
		if n < stepLen {
			target = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			continue
		}
		pos = pos.Add(d.Scale(stepLen / n))
		out = append(out, pos)
	}
	return out
}

func TestNewPlaneQueryValidation(t *testing.T) {
	ix := buildIndex(t, 10, 1)
	if _, err := NewPlaneQuery(ix, 0, 1.5); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := NewPlaneQuery(ix, 3, 0.5); err == nil {
		t.Error("expected error for rho<1")
	}
	q, err := NewPlaneQuery(ix, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Update(geom.Pt(1, 1)); err == nil {
		t.Error("expected error for k > n at first update")
	}
}

func TestPlaneQueryEmptyIndex(t *testing.T) {
	ix := vortree.New(testBounds, 16)
	q, err := NewPlaneQuery(ix, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Update(geom.Pt(1, 1)); err == nil {
		t.Error("expected error on empty index")
	}
}

func TestPlaneQueryCorrectAlongTrajectory(t *testing.T) {
	ix := buildIndex(t, 500, 2)
	for _, k := range []int{1, 3, 8} {
		for _, rho := range []float64{1.0, 1.6, 2.5} {
			q, err := NewPlaneQuery(ix, k, rho)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range walkTrajectory(400, 2.5, int64(k*100)+int64(rho*10)) {
				got, err := q.Update(p)
				if err != nil {
					t.Fatal(err)
				}
				checkKNNAgainstBrute(t, ix, p, got, k)
			}
		}
	}
}

func TestPlaneQueryRecomputesRarely(t *testing.T) {
	ix := buildIndex(t, 2000, 3)
	q, err := NewPlaneQuery(ix, 5, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range walkTrajectory(1000, 1.5, 4) {
		if _, err := q.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	m := q.Metrics()
	if m.Timestamps != 1000 {
		t.Fatalf("Timestamps = %d, want 1000", m.Timestamps)
	}
	if m.Recomputations >= m.Timestamps/5 {
		t.Errorf("INS recomputed too often: %d times in %d steps", m.Recomputations, m.Timestamps)
	}
	if m.Recomputations < 1 {
		t.Error("expected at least the initial recomputation")
	}
	if m.Invalidations < m.Recomputations-1 {
		t.Errorf("invalidations (%d) below recomputations (%d)", m.Invalidations, m.Recomputations)
	}
}

func TestPrefetchReducesRecomputations(t *testing.T) {
	ix := buildIndex(t, 2000, 5)
	traj := walkTrajectory(1500, 2, 6)
	recomps := make(map[float64]int)
	for _, rho := range []float64{1.0, 2.0} {
		q, err := NewPlaneQuery(ix, 5, rho)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range traj {
			if _, err := q.Update(p); err != nil {
				t.Fatal(err)
			}
		}
		recomps[rho] = q.Metrics().Recomputations
	}
	if recomps[2.0] > recomps[1.0] {
		t.Errorf("rho=2 recomputed %d times, rho=1 %d times; prefetch should not hurt",
			recomps[2.0], recomps[1.0])
	}
}

func TestPlaneQueryStationaryNeverRecomputes(t *testing.T) {
	ix := buildIndex(t, 300, 7)
	q, err := NewPlaneQuery(ix, 4, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Pt(400, 400)
	for i := 0; i < 50; i++ {
		if _, err := q.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Metrics().Recomputations; got != 1 {
		t.Errorf("stationary query recomputed %d times, want 1", got)
	}
	if got := q.Metrics().Invalidations; got != 0 {
		t.Errorf("stationary query invalidated %d times, want 0", got)
	}
}

func TestInfluenceSetDisjointFromKNN(t *testing.T) {
	ix := buildIndex(t, 400, 8)
	q, err := NewPlaneQuery(ix, 6, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range walkTrajectory(100, 3, 9) {
		if _, err := q.Update(p); err != nil {
			t.Fatal(err)
		}
		inKNN := make(map[int]bool)
		for _, id := range q.Current() {
			inKNN[id] = true
		}
		for _, id := range q.InfluenceSet() {
			if inKNN[id] {
				t.Fatalf("influence set member %d is in the kNN set", id)
			}
		}
	}
}

// pinnedPlane builds a store over n random points and a query pinned to
// it; both are closed when the test ends.
func pinnedPlane(t *testing.T, n int, seed int64, k int) (*index.Store, *PlaneQuery) {
	t.Helper()
	st, err := index.NewStore(index.Config{Bounds: testBounds, Objects: randomPoints(n, seed)})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewPlaneQueryPinned(st, k, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		q.Close()
		st.Close()
	})
	return st, q
}

// livePlane returns the store's current plane index: the live objects the
// brute-force check ranks.
func livePlane(st *index.Store) *vortree.Index { return st.Current().Plane().(*vortree.Index) }

// repairModes runs body once with lazy repair (the next Update at the same
// position picks up a store write) and once with eager repair (Refresh).
func repairModes(t *testing.T, body func(t *testing.T, repair func(q *PlaneQuery, p geom.Point) []int)) {
	t.Run("lazy", func(t *testing.T) {
		body(t, func(q *PlaneQuery, p geom.Point) []int {
			got, err := q.Update(p)
			if err != nil {
				t.Fatal(err)
			}
			return got
		})
	})
	t.Run("eager", func(t *testing.T) {
		body(t, func(q *PlaneQuery, _ geom.Point) []int {
			got, _, err := q.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			return got
		})
	})
}

func TestInsertKeepsResultCorrect(t *testing.T) {
	repairModes(t, func(t *testing.T, repair func(*PlaneQuery, geom.Point) []int) {
		st, q := pinnedPlane(t, 300, 10, 5)
		rng := rand.New(rand.NewSource(11))
		for i, p := range walkTrajectory(300, 2, 12) {
			got, err := q.Update(p)
			if err != nil {
				t.Fatal(err)
			}
			checkKNNAgainstBrute(t, livePlane(st), p, got, 5)
			if i%10 != 5 {
				continue
			}
			// Insert sometimes right next to the query, sometimes far away.
			var np geom.Point
			if rng.Intn(2) == 0 {
				np = geom.Pt(p.X+rng.Float64()*20-10, p.Y+rng.Float64()*20-10)
				np.X = math.Min(math.Max(np.X, 0), 1000)
				np.Y = math.Min(math.Max(np.Y, 0), 1000)
			} else {
				np = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			}
			if _, err := applyOne(st, index.Mutation{Insert: true, P: np}); err != nil {
				t.Fatal(err)
			}
			// The result must already reflect the insert at the same position.
			checkKNNAgainstBrute(t, livePlane(st), p, repair(q, p), 5)
		}
	})
}

func TestRemoveKeepsResultCorrect(t *testing.T) {
	repairModes(t, func(t *testing.T, repair func(*PlaneQuery, geom.Point) []int) {
		st, q := pinnedPlane(t, 400, 13, 5)
		rng := rand.New(rand.NewSource(14))
		for i, p := range walkTrajectory(300, 2, 15) {
			got, err := q.Update(p)
			if err != nil {
				t.Fatal(err)
			}
			checkKNNAgainstBrute(t, livePlane(st), p, got, 5)
			if i%10 != 5 || livePlane(st).Len() <= 50 {
				continue
			}
			// Remove sometimes a current kNN member (worst case), sometimes
			// a random object.
			var victim int
			if rng.Intn(2) == 0 {
				victim = q.Current()[rng.Intn(len(q.Current()))]
			} else {
				ids := livePlane(st).Diagram().IDs()
				victim = ids[rng.Intn(len(ids))]
			}
			if _, err := applyOne(st, index.Mutation{ID: victim}); err != nil {
				t.Fatal(err)
			}
			checkKNNAgainstBrute(t, livePlane(st), p, repair(q, p), 5)
		}
	})
}

// TestInsertBesideGuardSetKeepsResultCorrect covers the neighbor half of
// AffectedByInsert: an object inserted just beyond the prefetched set's
// radius, but Voronoi-adjacent to a prefetched object, changes I(R) even
// though it is no nearer than R. The query then walks onto it.
func TestInsertBesideGuardSetKeepsResultCorrect(t *testing.T) {
	repairModes(t, func(t *testing.T, repair func(*PlaneQuery, geom.Point) []int) {
		const k = 5
		st, q := pinnedPlane(t, 300, 30, k)
		at := geom.Pt(500, 500)
		if _, err := q.Update(at); err != nil {
			t.Fatal(err)
		}
		adjacent := false
		for i := 0; i < 8 && !adjacent; i++ {
			var maxR float64
			for _, id := range q.Prefetched() {
				maxR = math.Max(maxR, at.Dist(livePlane(st).Point(id)))
			}
			dir := geom.Pt(math.Cos(float64(i)*math.Pi/4), math.Sin(float64(i)*math.Pi/4))
			np := at.Add(dir.Scale(maxR + 1))
			r := q.Prefetched()
			id, err := applyOne(st, index.Mutation{Insert: true, P: np})
			if err != nil {
				t.Fatal(err)
			}
			nb, err := livePlane(st).Neighbors(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range nb {
				adjacent = adjacent || slices.Contains(r, u)
			}
			checkKNNAgainstBrute(t, livePlane(st), at, repair(q, at), k)
			if !adjacent {
				continue
			}
			// Walk onto the new object; it joins the kNN on the way.
			for f := 0.0; f <= 1; f += 0.02 {
				p := at.Add(np.Sub(at).Scale(f))
				got, err := q.Update(p)
				if err != nil {
					t.Fatal(err)
				}
				checkKNNAgainstBrute(t, livePlane(st), p, got, k)
			}
		}
		if !adjacent {
			t.Fatal("no insert landed beside the prefetched set")
		}
	})
}

// TestDegenerateWritesKeepResultCorrect pushes degenerate geometry through
// the store into a pinned query: an exact duplicate of a live object, a
// collinear row through the query, and objects on the bounds of the data
// space, each checked against brute force.
func TestDegenerateWritesKeepResultCorrect(t *testing.T) {
	repairModes(t, func(t *testing.T, repair func(*PlaneQuery, geom.Point) []int) {
		const k = 4
		st, q := pinnedPlane(t, 200, 20, k)
		update := func(p geom.Point) []int {
			got, err := q.Update(p)
			if err != nil {
				t.Fatal(err)
			}
			checkKNNAgainstBrute(t, livePlane(st), p, got, k)
			return got
		}
		write := func(m index.Mutation, at geom.Point) int {
			id, err := applyOne(st, m)
			if err != nil {
				t.Fatalf("%+v: %v", m, err)
			}
			checkKNNAgainstBrute(t, livePlane(st), at, repair(q, at), k)
			return id
		}

		// An exact duplicate of the nearest object collapses onto it: the
		// store answers with the live id and the answer stays the same.
		at := geom.Pt(500, 500)
		before := append([]int(nil), update(at)...)
		nearest := before[0]
		id, err := applyOne(st, index.Mutation{Insert: true, P: livePlane(st).Point(nearest)})
		if err != nil || id != nearest {
			t.Fatalf("duplicate of object %d: id %d, err %v; want the live id", nearest, id, err)
		}
		if got := repair(q, at); !sameIDs(got, before) {
			t.Fatalf("duplicate insert changed the answer: %v -> %v", before, got)
		}

		// A collinear row through the query position, then a walk along it.
		for i := 1; i <= 6; i++ {
			write(index.Mutation{Insert: true, P: geom.Pt(500+3*float64(i), 500)}, at)
			write(index.Mutation{Insert: true, P: geom.Pt(500-3*float64(i), 500)}, at)
		}
		for x := 470.0; x <= 530; x += 1.5 {
			update(geom.Pt(x, 500))
		}

		// Objects inserted on the corners and edges of the bounds, then
		// removed again, with the query standing on each.
		onBounds := []geom.Point{
			geom.Pt(0, 0), geom.Pt(1000, 0), geom.Pt(0, 1000), geom.Pt(1000, 1000),
			geom.Pt(500, 0), geom.Pt(0, 500), geom.Pt(1000, 500), geom.Pt(500, 1000),
		}
		ids := make([]int, len(onBounds))
		for i, b := range onBounds {
			update(b)
			ids[i] = write(index.Mutation{Insert: true, P: b}, b)
		}
		for i, b := range onBounds {
			update(b)
			write(index.Mutation{ID: ids[i]}, b)
		}
	})
}

// sameIDs reports whether two id lists hold the same set.
func sameIDs(a, b []int) bool {
	as, bs := append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	return equalSorted(as, bs)
}

func TestValidationIsSound(t *testing.T) {
	// Whenever a step does not recompute and does not re-rank, the kNN set
	// must still be the true kNN set — checked exhaustively against brute
	// force on a small dataset where invalidations are frequent.
	ix := buildIndex(t, 60, 16)
	q, err := NewPlaneQuery(ix, 3, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range walkTrajectory(500, 5, 17) {
		got, err := q.Update(p)
		if err != nil {
			t.Fatal(err)
		}
		checkKNNAgainstBrute(t, ix, p, got, 3)
	}
}

func TestMetricsAccumulate(t *testing.T) {
	ix := buildIndex(t, 200, 18)
	q, _ := NewPlaneQuery(ix, 4, 1.5)
	for _, p := range walkTrajectory(50, 4, 19) {
		if _, err := q.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	m := q.Metrics()
	if m.Timestamps != 50 || m.Validations != 49 {
		t.Errorf("Timestamps=%d Validations=%d, want 50/49", m.Timestamps, m.Validations)
	}
	if m.DistanceCalcs == 0 || m.ObjectsShipped == 0 {
		t.Errorf("cost counters empty: %+v", *m)
	}
	per := m.PerTimestamp()
	if per.Recomputations <= 0 {
		t.Error("per-step recomputation rate should be positive")
	}
}
