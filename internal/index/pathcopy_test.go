package index

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

var benchBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000))

// BenchmarkStoreApplyPublish measures the cost of publishing one
// data-update epoch (insert+remove) at increasing object counts. With
// path-copying publication the per-epoch cost must grow sublinearly in the
// object count — the old deep-clone publication grew linearly.
func BenchmarkStoreApplyPublish(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000, 64000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			st, err := NewStore(Config{Bounds: benchBounds, Objects: workload.Uniform(n, benchBounds, 42)})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := applyOne(st, Mutation{Insert: true, P: geom.Pt(float64((i*131)%9973)+1, float64((i*373)%9941)+1)})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := applyOne(st, Mutation{ID: id}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPublishSharesStructure asserts that an epoch publication copies a
// small fraction of the index and that snapshots pinned before the epoch
// keep answering from the old version.
func TestPublishSharesStructure(t *testing.T) {
	st, err := NewStore(Config{Bounds: benchBounds, Objects: workload.Uniform(5000, benchBounds, 7)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	old := st.Acquire()
	defer old.Release()
	q := geom.Pt(5000, 5000)
	before := old.Plane().KNN(q, 8)

	if _, err := applyOne(st, Mutation{Insert: true, P: geom.Pt(5000.5, 5000.5)}); err != nil {
		t.Fatal(err)
	}
	copied, total := st.PlaneShareStats()
	if total == 0 || copied == 0 {
		t.Fatalf("share stats empty: copied=%d total=%d", copied, total)
	}
	if frac := float64(copied) / float64(total); frac > 0.25 {
		t.Fatalf("epoch copied %.0f%% of the index nodes (%d/%d); expected path copy, not full clone",
			100*frac, copied, total)
	}
	if pubs, tot := st.PublishStats(); pubs != 1 || tot <= 0 {
		t.Fatalf("publish stats: publishes=%d total=%v", pubs, tot)
	}

	// The pinned snapshot must be untouched by the publication.
	after := old.Plane().KNN(q, 8)
	if len(before) != len(after) {
		t.Fatalf("pinned snapshot changed: %v -> %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("pinned snapshot changed: %v -> %v", before, after)
		}
	}
	cur := st.Acquire()
	defer cur.Release()
	if got := cur.Plane().KNN(q, 1); len(got) == 0 || got[0] == before[0] {
		t.Fatalf("new snapshot does not see the inserted object: %v", got)
	}
}

// failingDurability rejects every append, as a dead or degraded WAL does.
type failingDurability struct{}

func (failingDurability) AppendBatch(context.Context, uint64, []Mutation) error {
	return errors.New("disk full")
}

// TestApplyAbortDiscardsBranch aborts a mixed batch the way production
// does — the WAL append fails after both branches were mutated — and
// asserts the store serves the previous snapshot unchanged and keeps
// publishing by path copying, with the same ids the aborted batch would
// have assigned (which WAL replay relies on).
func TestApplyAbortDiscardsBranch(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	g, err := workload.Network(8, bounds, 5)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := workload.NetworkSites(g, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(Config{
		Bounds:       bounds,
		Objects:      workload.Uniform(1000, bounds, 11),
		Network:      g,
		NetworkSites: sites,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Removals leave recycled face slots in the Delaunay free list, so the
	// aborted batch below pops and pushes them.
	for id := 0; id < 5; id++ {
		if _, err := applyOne(st, Mutation{ID: id}); err != nil {
			t.Fatal(err)
		}
	}

	before := st.Acquire()
	defer before.Release()
	liveBefore, nextID := before.PlaneObjects()
	sitesBefore := before.NetworkSites()
	epoch := st.Epoch()
	q := geom.Pt(500.5, 499.5)
	v := firstFree(st, g)

	st.SetDurability(failingDurability{})
	_, err = st.ApplyCtx(context.Background(), []Mutation{
		{Insert: true, P: q},
		{ID: 100},
		{Network: true, Insert: true, ID: v},
	})
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("aborted batch: err = %v, want ErrDurability", err)
	}
	if st.Epoch() != epoch || st.Current() != before {
		t.Fatalf("aborted batch published: epoch %d -> %d", epoch, st.Epoch())
	}
	st.SetDurability(nil)
	snap := st.Acquire()
	live, next := snap.PlaneObjects()
	if !reflect.DeepEqual(live, liveBefore) || next != nextID || !reflect.DeepEqual(snap.NetworkSites(), sitesBefore) {
		t.Fatal("aborted batch changed the live set")
	}
	snap.Release()

	id, err := applyOne(st, Mutation{Insert: true, P: q})
	if err != nil {
		t.Fatal(err)
	}
	if id != nextID {
		t.Fatalf("insert after abort got id %d, want %d (the aborted insert's id)", id, nextID)
	}
	copied, total := st.PlaneShareStats()
	if frac := float64(copied) / float64(total); frac > 0.25 {
		t.Fatalf("epoch after the abort copied %.0f%% of the index (%d/%d); want path copying", 100*frac, copied, total)
	}
	// Object 100 is still live, so re-inserting its point is a duplicate.
	if dup, err := applyOne(st, Mutation{Insert: true, P: before.Plane().Point(100)}); err != nil || dup != 100 {
		t.Fatalf("re-insert live object 100: id %d, err %v", dup, err)
	}
	// More removals make the next branches pop and push recycled face
	// slots.
	const removed = 40
	for _, o := range liveBefore[:removed] {
		if _, err := applyOne(st, Mutation{ID: o.ID}); err != nil {
			t.Fatal(err)
		}
	}

	snap = st.Acquire()
	defer snap.Release()
	live, _ = snap.PlaneObjects()
	if want := len(liveBefore) - removed + 1; len(live) != want || !snap.Plane().Contains(id) || snap.Plane().Point(id) != q {
		t.Fatalf("live set after the abort: %d objects, want %d with %d at %v", len(live), want, id, q)
	}
	for _, p := range []geom.Point{q, geom.Pt(10, 10), geom.Pt(990, 20), before.Plane().Point(100)} {
		const k = 8
		sort.Slice(live, func(i, j int) bool { return live[i].P.Dist2(p) < live[j].P.Dist2(p) })
		got := snap.Plane().KNN(p, k)
		for i, o := range live[:k] {
			if snap.Plane().Point(got[i]).Dist2(p) != o.P.Dist2(p) {
				t.Fatalf("KNN(%v) = %v, brute force rank %d is %d", p, got, i, o.ID)
			}
		}
	}
}
