package vortree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
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

func bruteKNN(ix *Index, q geom.Point, k int) []int {
	ids := ix.Diagram().IDs()
	sort.Slice(ids, func(i, j int) bool {
		di, dj := q.Dist2(ix.Point(ids[i])), q.Dist2(ix.Point(ids[j]))
		if di != dj {
			return di < dj
		}
		return ids[i] < ids[j]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

func sameIDSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestBuildAndKNN(t *testing.T) {
	ix, ids, err := Build(testBounds, 16, randomPoints(500, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 500 || len(ids) != 500 {
		t.Fatalf("Len = %d, want 500", ix.Len())
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		for _, k := range []int{1, 4, 12} {
			got := ix.KNN(q, k)
			want := bruteKNN(ix, q, k)
			if !sameIDSet(got, want) {
				t.Fatalf("KNN(%v,%d) = %v, want %v", q, k, got, want)
			}
		}
	}
}

func TestNNAgreesWithRtreeAndDiagram(t *testing.T) {
	ix, _, err := Build(testBounds, 8, randomPoints(300, 3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		a, b := ix.NN(q), ix.Diagram().Nearest(q)
		if a != b && q.Dist2(ix.Point(a)) != q.Dist2(ix.Point(b)) {
			t.Fatalf("NN disagreement: rtree %d vs voronoi %d", a, b)
		}
	}
}

func TestInsertRemoveConsistency(t *testing.T) {
	ix, ids, err := Build(testBounds, 8, randomPoints(150, 5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	live := append([]int(nil), ids...)
	for step := 0; step < 120; step++ {
		if rng.Intn(2) == 0 && len(live) > 10 {
			i := rng.Intn(len(live))
			if err := ix.Remove(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		} else {
			id, err := ix.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		if ix.Len() != len(live) {
			t.Fatalf("step %d: Len = %d, want %d", step, ix.Len(), len(live))
		}
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		if got, want := ix.KNN(q, 6), bruteKNN(ix, q, 6); !sameIDSet(got, want) {
			t.Fatalf("step %d: KNN = %v, want %v", step, got, want)
		}
	}
}

func TestInsertDuplicate(t *testing.T) {
	ix := New(testBounds, 8)
	id1, err := ix.Insert(geom.Pt(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := ix.Insert(geom.Pt(10, 10))
	if err != nil {
		t.Fatalf("duplicate insert errored: %v", err)
	}
	if id1 != id2 {
		t.Errorf("duplicate insert got id %d, want %d", id2, id1)
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d, want 1", ix.Len())
	}
}

func TestRemoveUnknown(t *testing.T) {
	ix := New(testBounds, 8)
	if err := ix.Remove(42); err == nil {
		t.Error("expected error removing unknown id")
	}
}

func TestKNNEmptyAndSmall(t *testing.T) {
	ix := New(testBounds, 8)
	if got := ix.KNN(geom.Pt(5, 5), 3); got != nil {
		t.Errorf("KNN on empty index = %v", got)
	}
	if got := ix.NN(geom.Pt(5, 5)); got != -1 {
		t.Errorf("NN on empty index = %d, want -1", got)
	}
	id, _ := ix.Insert(geom.Pt(7, 7))
	if got := ix.KNN(geom.Pt(5, 5), 3); len(got) != 1 || got[0] != id {
		t.Errorf("KNN with 1 object = %v", got)
	}
}

func BenchmarkVorKNN10k(b *testing.B) {
	ix, _, err := Build(testBounds, 16, randomPoints(10000, 7))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	qs := make([]geom.Point, 256)
	for i := range qs {
		qs[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.KNN(qs[i%len(qs)], 8)
	}
}

// TestBranchAbandoned drops a mutated branch — R-tree handle and Voronoi
// overlay alike — and asserts a fresh branch of the same parent answers
// exactly like the parent and assigns the ids the dropped branch did.
func TestBranchAbandoned(t *testing.T) {
	parent, _, err := Build(testBounds, 16, randomPoints(500, 6))
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 10; id++ {
		if err := parent.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	q, next := geom.Pt(500.5, 499.5), parent.NextID()
	probes := []geom.Point{q, geom.Pt(5, 5), geom.Pt(990, 400), parent.Point(30)}

	abandoned := parent.Branch()
	if id, err := abandoned.Insert(q); err != nil || id != next {
		t.Fatalf("insert on abandoned branch: id %d, err %v; want %d", id, err, next)
	}
	for id := 10; id < 60; id++ {
		if err := abandoned.Remove(id); err != nil {
			t.Fatal(err)
		}
	}

	b := parent.Branch()
	for _, p := range probes {
		if got, want := b.KNN(p, 8), bruteKNN(parent, p, 8); !sameIDSet(got, want) {
			t.Fatalf("fresh branch KNN(%v) = %v, parent brute force %v", p, got, want)
		}
	}
	if id, err := b.Insert(q); err != nil || id != next {
		t.Fatalf("insert on fresh branch: id %d, err %v; want %d", id, err, next)
	}
	for id := 10; id < 60; id++ {
		if err := b.Remove(id); err != nil {
			t.Fatalf("remove %d, live in the parent: %v", id, err)
		}
	}
	for _, p := range probes {
		if got, want := b.KNN(p, 8), bruteKNN(b, p, 8); !sameIDSet(got, want) {
			t.Fatalf("KNN(%v) = %v, brute force %v", p, got, want)
		}
	}
	if err := b.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := parent.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
