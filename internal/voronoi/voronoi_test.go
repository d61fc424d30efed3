package voronoi

import (
	"math"
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

func buildRandom(t testing.TB, n int, seed int64) (*Diagram, []int) {
	t.Helper()
	d, ids, err := Build(testBounds, randomPoints(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return d, ids
}

// bruteKNN is the ground-truth kNN by linear scan.
func bruteKNN(d *Diagram, q geom.Point, k int) []int {
	ids := d.IDs()
	sort.Slice(ids, func(i, j int) bool {
		di, dj := q.Dist2(d.Site(ids[i])), q.Dist2(d.Site(ids[j]))
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

func TestNearestMatchesBruteForce(t *testing.T) {
	d, _ := buildRandom(t, 300, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		got := d.Nearest(q)
		want := bruteKNN(d, q, 1)[0]
		if got != want {
			gd, wd := q.Dist(d.Site(got)), q.Dist(d.Site(want))
			if math.Abs(gd-wd) > 1e-9 {
				t.Fatalf("Nearest(%v) = %d (d=%g), want %d (d=%g)", q, got, gd, want, wd)
			}
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	d, _ := buildRandom(t, 400, 3)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		for _, k := range []int{1, 3, 8, 17} {
			got := d.KNN(q, k)
			want := bruteKNN(d, q, k)
			if !sameIDSet(got, want) {
				t.Fatalf("KNN(%v, %d) = %v, want %v", q, k, got, want)
			}
			// KNN promises ascending distance order.
			for j := 1; j < len(got); j++ {
				if q.Dist2(d.Site(got[j])) < q.Dist2(d.Site(got[j-1])) {
					t.Fatalf("KNN result not sorted by distance: %v", got)
				}
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	d := NewDiagram(testBounds)
	if got := d.KNN(geom.Pt(1, 1), 3); got != nil {
		t.Errorf("KNN on empty diagram = %v, want nil", got)
	}
	if _, err := d.Insert(geom.Pt(5, 5)); err != nil {
		t.Fatal(err)
	}
	if got := d.KNN(geom.Pt(1, 1), 0); got != nil {
		t.Errorf("KNN with k=0 = %v, want nil", got)
	}
	got := d.KNN(geom.Pt(1, 1), 10)
	if len(got) != 1 {
		t.Errorf("KNN with k > n returned %d ids, want 1", len(got))
	}
}

func TestCellContainsOwnRegion(t *testing.T) {
	d, _ := buildRandom(t, 150, 5)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		nearest := d.Nearest(q)
		cell, err := d.Cell(nearest)
		if err != nil {
			t.Fatal(err)
		}
		if !cell.Contains(q) {
			t.Fatalf("cell of nearest site %d does not contain query %v", nearest, q)
		}
	}
}

func TestCellsPartitionBounds(t *testing.T) {
	d, ids := buildRandom(t, 120, 7)
	var total float64
	for _, id := range ids {
		cell, err := d.Cell(id)
		if err != nil {
			t.Fatal(err)
		}
		a := cell.Area()
		if a <= 0 {
			t.Fatalf("cell %d has area %g", id, a)
		}
		total += a
	}
	if want := testBounds.Area(); math.Abs(total-want) > 1e-6*want {
		t.Fatalf("cells cover %g, bounds area %g", total, want)
	}
}

func TestINSContainsAllKNNNeighbors(t *testing.T) {
	d, _ := buildRandom(t, 200, 8)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		knn := d.KNN(q, 5)
		ins, err := d.INS(knn)
		if err != nil {
			t.Fatal(err)
		}
		inKNN := make(map[int]bool)
		for _, id := range knn {
			inKNN[id] = true
		}
		insSet := make(map[int]bool)
		for _, id := range ins {
			if inKNN[id] {
				t.Fatalf("INS %v overlaps kNN %v", ins, knn)
			}
			insSet[id] = true
		}
		for _, id := range knn {
			nb, err := d.Neighbors(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range nb {
				if !inKNN[u] && !insSet[u] {
					t.Fatalf("neighbor %d of kNN member %d missing from INS", u, id)
				}
			}
		}
	}
}

func TestOrderKCellContainsQuery(t *testing.T) {
	d, _ := buildRandom(t, 250, 10)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		knn := d.KNN(q, 4)
		ins, err := d.INS(knn)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := d.OrderKCell(knn, ins)
		if err != nil {
			t.Fatal(err)
		}
		if !cell.Contains(q) {
			t.Fatalf("order-k cell of kNN(%v) does not contain q", q)
		}
	}
}

// TestOrderKCellSafeRegion samples points inside and outside the order-k
// cell and checks the defining property: inside, the kNN set is unchanged;
// crossing outside changes it.
func TestOrderKCellSafeRegion(t *testing.T) {
	d, _ := buildRandom(t, 250, 12)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		knn := d.KNN(q, 5)
		ins, err := d.INS(knn)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := d.OrderKCell(knn, ins)
		if err != nil {
			t.Fatal(err)
		}
		if len(cell) < 3 {
			t.Fatalf("degenerate order-k cell for q=%v", q)
		}
		c := cell.Centroid()
		// Interior samples: convex combinations of the centroid and
		// vertices, pulled inward.
		for _, v := range cell {
			in := geom.Lerp(c, v, 0.9*rng.Float64())
			if !sameIDSet(d.KNN(in, 5), knn) {
				if cell.Contains(in) {
					t.Fatalf("point %v inside cell has different kNN", in)
				}
			}
		}
		// Exterior samples: push past each edge midpoint.
		for j, v := range cell {
			w := cell[(j+1)%len(cell)]
			mid := geom.Mid(v, w)
			out := geom.Lerp(c, mid, 1.05)
			if !testBounds.Contains(out) || cell.Contains(out) {
				continue
			}
			if sameIDSet(bruteKNN(d, out, 5), knn) {
				// Only a true violation if decisively outside (numerical
				// slack at the edge is fine).
				d2 := geom.Segment{A: v, B: w}.DistPoint(out)
				if d2 > 1e-6 {
					t.Fatalf("point %v outside cell keeps the same kNN", out)
				}
			}
		}
	}
}

// TestOrderKCellINSEqualsExact verifies the consequence of Theorem 1: the
// cell computed against the INS candidates equals the cell computed against
// every outside site.
func TestOrderKCellINSEqualsExact(t *testing.T) {
	d, _ := buildRandom(t, 150, 14)
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 40; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		for _, k := range []int{1, 3, 6} {
			knn := d.KNN(q, k)
			ins, err := d.INS(knn)
			if err != nil {
				t.Fatal(err)
			}
			viaINS, err := d.OrderKCell(knn, ins)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := d.OrderKCellExact(knn)
			if err != nil {
				t.Fatal(err)
			}
			ai, ae := viaINS.Area(), exact.Area()
			if math.Abs(ai-ae) > 1e-6*(ae+1e-9) {
				t.Fatalf("k=%d: INS cell area %g != exact cell area %g", k, ai, ae)
			}
		}
	}
}

// TestMISMinimality checks both directions of Definition 2 on random
// inputs: dropping a MIS member strictly grows the constrained cell
// (so every member is necessary), while dropping a non-member leaves it
// unchanged (so nothing else is needed).
func TestMISMinimality(t *testing.T) {
	d, _ := buildRandom(t, 120, 16)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 25; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		knn := d.KNN(q, 3)
		ins, err := d.INS(knn)
		if err != nil {
			t.Fatal(err)
		}
		mis, err := d.MIS(knn, ins)
		if err != nil {
			t.Fatal(err)
		}
		if len(mis) == 0 {
			t.Fatalf("empty MIS for interior query %v", q)
		}
		insSet := make(map[int]bool)
		for _, id := range ins {
			insSet[id] = true
		}
		for _, id := range mis {
			if !insSet[id] {
				t.Fatalf("MIS member %d not in INS %v (violates Theorem 1)", id, ins)
			}
		}
		base, err := d.OrderKCell(knn, ins)
		if err != nil {
			t.Fatal(err)
		}
		baseArea := base.Area()
		without := func(xs []int, drop int) []int {
			out := make([]int, 0, len(xs)-1)
			for _, x := range xs {
				if x != drop {
					out = append(out, x)
				}
			}
			return out
		}
		for _, m := range mis {
			cell, err := d.OrderKCell(knn, without(ins, m))
			if err != nil {
				t.Fatal(err)
			}
			if cell.Area() <= baseArea*(1+1e-9) {
				t.Fatalf("dropping MIS member %d did not grow the cell", m)
			}
		}
		for _, x := range ins {
			if contains(mis, x) {
				continue
			}
			cell, err := d.OrderKCell(knn, without(ins, x))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(cell.Area()-baseArea) > 1e-6*(baseArea+1e-9) {
				t.Fatalf("dropping non-MIS member %d changed the cell area (%g vs %g)",
					x, cell.Area(), baseArea)
			}
		}
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func TestDynamicInsertRemoveKeepsKNNCorrect(t *testing.T) {
	d, ids := buildRandom(t, 200, 18)
	rng := rand.New(rand.NewSource(19))
	live := append([]int(nil), ids...)
	for step := 0; step < 100; step++ {
		if rng.Intn(2) == 0 && len(live) > 20 {
			i := rng.Intn(len(live))
			if err := d.Remove(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		} else {
			id, err := d.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		if got, want := d.KNN(q, 5), bruteKNN(d, q, 5); !sameIDSet(got, want) {
			t.Fatalf("step %d: KNN = %v, want %v", step, got, want)
		}
	}
}

func TestOrderKCellErrors(t *testing.T) {
	d, ids := buildRandom(t, 20, 20)
	if err := d.Remove(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.OrderKCell([]int{ids[0]}, []int{ids[1]}); err == nil {
		t.Error("expected error for dead kNN member")
	}
	if _, err := d.OrderKCell([]int{ids[1]}, []int{ids[0]}); err == nil {
		t.Error("expected error for dead candidate")
	}
}

func BenchmarkKNN(b *testing.B) {
	d, _ := buildRandom(b, 10000, 30)
	rng := rand.New(rand.NewSource(31))
	qs := make([]geom.Point, 256)
	for i := range qs {
		qs[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.KNN(qs[i%len(qs)], 8)
	}
}

func BenchmarkINS(b *testing.B) {
	d, _ := buildRandom(b, 10000, 32)
	knn := d.KNN(geom.Pt(500, 500), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.INS(knn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderKCell(b *testing.B) {
	d, _ := buildRandom(b, 10000, 33)
	knn := d.KNN(geom.Pt(500, 500), 8)
	ins, err := d.INS(knn)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.OrderKCell(knn, ins); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBranchFreezesParent: a branch mutates while its parent, now frozen,
// rejects writes and keeps answering from its own sites.
func TestBranchFreezesParent(t *testing.T) {
	parent, _ := buildRandom(t, 200, 21)
	q := geom.Pt(400, 600)
	want := parent.KNN(q, 5)
	b := parent.Branch()
	if _, err := parent.Insert(geom.Pt(1, 1)); err == nil {
		t.Fatal("insert on a frozen parent succeeded")
	}
	if _, err := b.Insert(q); err != nil {
		t.Fatal(err)
	}
	for _, id := range want[:2] {
		if err := b.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := parent.KNN(q, 5); !sameIDSet(got, want) || !sameIDSet(got, bruteKNN(parent, q, 5)) {
		t.Fatalf("parent KNN after branch mutations = %v, want %v", got, want)
	}
	if got, want := b.KNN(q, 5), bruteKNN(b, q, 5); !sameIDSet(got, want) {
		t.Fatalf("branch KNN = %v, brute force %v", got, want)
	}
}
