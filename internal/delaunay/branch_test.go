package delaunay

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// neighborSnapshot captures every live vertex's neighbor list.
func neighborSnapshot(t *testing.T, tr *Triangulation) map[int][]int {
	t.Helper()
	snap := make(map[int][]int)
	for _, id := range tr.VertexIDs() {
		nb, err := tr.Neighbors(id)
		if err != nil {
			t.Fatal(err)
		}
		snap[id] = nb
	}
	return snap
}

func sameNeighbors(a, b map[int][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for id, nb := range a {
		ob, ok := b[id]
		if !ok || len(ob) != len(nb) {
			return false
		}
		for i := range nb {
			if nb[i] != ob[i] {
				return false
			}
		}
	}
	return true
}

// TestBranchIsolation drives a chain of branches with inserts and removals
// and asserts every frozen version keeps answering exactly as it did when
// it was the head — the page-sharing invariant the snapshot store relies
// on.
func TestBranchIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	head := New(testBounds)
	if _, err := head.InsertAll(randomPoints(300, 3)); err != nil {
		t.Fatal(err)
	}

	type pinned struct {
		tr   *Triangulation
		snap map[int][]int
	}
	var pins []pinned
	live := head.VertexIDs()
	for epoch := 0; epoch < 40; epoch++ {
		pins = append(pins, pinned{head, neighborSnapshot(t, head)})
		next := head.Branch()
		if _, err := head.Insert(geom.Pt(1, 1)); !errors.Is(err, ErrFrozen) {
			t.Fatalf("insert on frozen version: err = %v, want ErrFrozen", err)
		}
		if err := head.Remove(live[0]); !errors.Is(err, ErrFrozen) {
			t.Fatalf("remove on frozen version: err = %v, want ErrFrozen", err)
		}
		head = next
		if epoch%3 == 2 {
			victim := live[rng.Intn(len(live))]
			if err := head.Remove(victim); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := head.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)); err != nil && !errors.Is(err, ErrDuplicate) {
				t.Fatal(err)
			}
		}
		live = head.VertexIDs()
		checkDelaunay(t, head)
		checkAdjacency(t, head)
	}
	for i, p := range pins {
		if got := neighborSnapshot(t, p.tr); !sameNeighbors(p.snap, got) {
			t.Fatalf("pinned version %d changed after later mutations", i)
		}
	}
}

// TestBranchConcurrentReaders mutates the head version while goroutines
// hammer reads on frozen ancestors; run under -race this proves the
// page-sharing scheme never writes memory a frozen version can see.
func TestBranchConcurrentReaders(t *testing.T) {
	head := New(testBounds)
	if _, err := head.InsertAll(randomPoints(400, 17)); err != nil {
		t.Fatal(err)
	}
	frozen := head
	head = head.Branch()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ids := frozen.VertexIDs()
			var sc RingScratch
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[rng.Intn(len(ids))]
				if _, err := frozen.AppendNeighbors(id, nil, &sc); err != nil {
					t.Errorf("frozen Neighbors(%d): %v", id, err)
					return
				}
				frozen.Nearest(geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
			}
		}(int64(g))
	}

	rng := rand.New(rand.NewSource(99))
	live := head.VertexIDs()
	for i := 0; i < 200; i++ {
		if i%4 == 3 {
			if err := head.Remove(live[rng.Intn(len(live))]); err != nil {
				t.Fatal(err)
			}
		} else if _, err := head.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)); err != nil && !errors.Is(err, ErrDuplicate) {
			t.Fatal(err)
		}
		live = head.VertexIDs()
		if i%20 == 19 {
			next := head.Branch() // old heads stay readable; only the newest mutates
			head = next
		}
	}
	close(stop)
	wg.Wait()
	checkDelaunay(t, head)
	checkAdjacency(t, head)
}

// TestBranchAbandoned drops a mutated branch unpublished — the store's
// path for an aborted batch — and asserts a fresh branch of the same
// parent starts from exactly the parent's state: no point, duplicate
// entry or recycled face slot of the abandoned branch survives.
func TestBranchAbandoned(t *testing.T) {
	parent := New(testBounds)
	if _, err := parent.InsertAll(randomPoints(400, 23)); err != nil {
		t.Fatal(err)
	}
	// Removals leave recycled face slots on the parent's free list.
	for id := 0; id < 10; id++ {
		if err := parent.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	want := neighborSnapshot(t, parent)
	next := parent.IDUpperBound()
	q := geom.Pt(500.25, 499.75)

	// Readers keep using the parent, as sessions keep reading the
	// published snapshot while a batch branches, aborts and retries.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ids := parent.VertexIDs()
			var sc RingScratch
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := parent.AppendNeighbors(ids[rng.Intn(len(ids))], nil, &sc); err != nil {
					t.Errorf("parent Neighbors: %v", err)
					return
				}
				parent.Nearest(geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
			}
		}(int64(g))
	}

	abandoned := parent.Branch()
	if id, err := abandoned.Insert(q); err != nil || id != next {
		t.Fatalf("insert on abandoned branch: id %d, err %v; want %d", id, err, next)
	}
	if err := abandoned.Remove(100); err != nil {
		t.Fatal(err)
	}

	b := parent.Branch()
	if got := neighborSnapshot(t, b); !sameNeighbors(want, got) {
		t.Fatal("fresh branch differs from its parent after an abandoned sibling")
	}
	if id, err := b.Insert(q); err != nil || id != next {
		t.Fatalf("insert %v: id %d, err %v; want id %d (the abandoned insert's id)", q, id, err, next)
	}
	if id, err := b.Insert(parent.Point(100)); !errors.Is(err, ErrDuplicate) || id != 100 {
		t.Fatalf("re-insert live vertex 100: id %d, err %v; want 100, ErrDuplicate", id, err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 60; i++ {
		live := b.VertexIDs()
		if err := b.Remove(live[rng.Intn(len(live))]); err != nil {
			t.Fatal(err)
		}
	}
	checkDelaunay(t, b)
	checkAdjacency(t, b)
	if got := neighborSnapshot(t, parent); !sameNeighbors(want, got) {
		t.Fatal("parent changed under its branches")
	}
}
