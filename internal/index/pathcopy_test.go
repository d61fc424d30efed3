package index

import (
	"fmt"
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

// TestApplyPoisonFallback forces the deep-clone fallback and asserts the
// store keeps serving correct answers through it.
func TestApplyPoisonFallback(t *testing.T) {
	st, err := NewStore(Config{Bounds: benchBounds, Objects: workload.Uniform(1000, benchBounds, 11)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := applyOne(st, Mutation{Insert: true, P: geom.Pt(10, 10)}); err != nil {
		t.Fatal(err)
	}

	// Simulate an aborted mid-batch mutation (unreachable through the
	// pre-validated public API, by design).
	st.mu.Lock()
	st.poisoned = true
	st.mu.Unlock()

	id, err := applyOne(st, Mutation{Insert: true, P: geom.Pt(20, 20)})
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Acquire()
	defer snap.Release()
	if !snap.Plane().Contains(id) {
		t.Fatal("object inserted through the fallback path is not live")
	}
	if got := snap.Plane().KNN(geom.Pt(20, 20), 1); len(got) != 1 || got[0] != id {
		t.Fatalf("KNN after fallback = %v, want [%d]", got, id)
	}
	// And the next epoch goes back to path copying.
	if _, err := applyOne(st, Mutation{Insert: true, P: geom.Pt(30, 30)}); err != nil {
		t.Fatal(err)
	}
	copied, total := st.PlaneShareStats()
	if frac := float64(copied) / float64(total); frac > 0.25 {
		t.Fatalf("post-fallback epoch copied %.0f%% of the index", 100*frac)
	}
}
