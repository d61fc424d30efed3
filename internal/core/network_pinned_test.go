package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

func pinnedNetworkStore(t *testing.T) (*index.Store, *roadnet.Graph, []int) {
	t.Helper()
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	g, err := workload.Network(16, bounds, 3)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := workload.NetworkSites(g, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := index.NewStore(index.Config{Network: g, NetworkSites: sites})
	if err != nil {
		t.Fatal(err)
	}
	return st, g, sites
}

// TestNetworkQueryPinnedLifecycle: a pinned network query re-pins across
// site mutations, recomputes exactly when its guard cells are disturbed,
// and releases its pin on Close.
func TestNetworkQueryPinnedLifecycle(t *testing.T) {
	st, g, _ := pinnedNetworkStore(t)
	defer st.Close()

	q, err := NewNetworkQueryPinned(st, 3, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	home := rng.Intn(g.NumVertices())
	for st.Current().Network().IsSite(home) {
		home = rng.Intn(g.NumVertices())
	}
	if _, err := q.Update(roadnet.VertexPosition(home)); err != nil {
		t.Fatal(err)
	}
	if q.Epoch() != 0 {
		t.Fatalf("epoch = %d, want 0", q.Epoch())
	}

	// Inserting a site at the session's own vertex must reach its kNN at
	// the next update (dist 0 beats everything).
	if _, err := applyOne(st, index.Mutation{Network: true, Insert: true, ID: home}); err != nil {
		t.Fatal(err)
	}
	knn, err := q.Update(roadnet.VertexPosition(home))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range knn {
		found = found || id == home
	}
	if !found {
		t.Fatalf("kNN %v misses the site inserted at the query position %d", knn, home)
	}
	if q.Epoch() != st.Epoch() {
		t.Fatalf("query epoch %d lags store epoch %d after Update", q.Epoch(), st.Epoch())
	}

	// Removing the session's nearest site must evict it.
	if _, err := applyOne(st, index.Mutation{Network: true, ID: home}); err != nil {
		t.Fatal(err)
	}
	knn, err = q.Update(roadnet.VertexPosition(home))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range knn {
		if id == home {
			t.Fatalf("kNN %v still contains the removed site %d", knn, home)
		}
	}

	q.Close()
	if n := st.LiveSnapshots(); n != 1 {
		t.Fatalf("live snapshots after Close = %d, want 1 (the store's own pin)", n)
	}
}

// TestNetworkQueryRefreshEager: Refresh recomputes an invalidated session
// at its last position without a location update — the eager-repair hook
// the push pipeline uses.
func TestNetworkQueryRefreshEager(t *testing.T) {
	st, _, _ := pinnedNetworkStore(t)
	defer st.Close()

	q, err := NewNetworkQueryPinned(st, 2, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	home := 0
	for st.Current().Network().IsSite(home) {
		home++
	}
	if _, err := q.Update(roadnet.VertexPosition(home)); err != nil {
		t.Fatal(err)
	}
	recomputes := q.Metrics().Recomputations

	if _, err := applyOne(st, index.Mutation{Network: true, Insert: true, ID: home}); err != nil {
		t.Fatal(err)
	}
	knn, recomputed, err := q.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("Refresh did not recompute after a site insert at the query position")
	}
	if q.Metrics().Recomputations != recomputes+1 {
		t.Fatalf("recomputations = %d, want %d", q.Metrics().Recomputations, recomputes+1)
	}
	found := false
	for _, id := range knn {
		found = found || id == home
	}
	if !found {
		t.Fatalf("refreshed kNN %v misses the inserted site %d", knn, home)
	}
	// A second Refresh with no new epochs is a no-op.
	if _, recomputed, _ := q.Refresh(); recomputed {
		t.Fatal("idle Refresh recomputed")
	}
}

// TestNetworkQueryLazySkip: a site mutation far outside the session's
// guard cells must NOT invalidate it — the lazy-invalidation filter at
// work on the network side. The test places the session in one corner of
// a large grid and mutates the opposite corner.
func TestNetworkQueryLazySkip(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	g, err := workload.Network(24, bounds, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Sites spread deterministically so both corners have plenty.
	var sites []int
	for v := 0; v < g.NumVertices(); v += 7 {
		sites = append(sites, v)
	}
	st, err := index.NewStore(index.Config{Network: g, NetworkSites: sites})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	q, err := NewNetworkQueryPinned(st, 2, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	if _, err := q.Update(roadnet.VertexPosition(0)); err != nil { // corner vertex
		t.Fatal(err)
	}
	recomputes := q.Metrics().Recomputations

	// Mutate the far corner: vertex ids near NumVertices-1 sit rows away.
	far := g.NumVertices() - 2
	for st.Current().Network().IsSite(far) {
		far--
	}
	if _, err := applyOne(st, index.Mutation{Network: true, Insert: true, ID: far}); err != nil {
		t.Fatal(err)
	}
	if _, err := applyOne(st, index.Mutation{Network: true, ID: far}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Update(roadnet.VertexPosition(0)); err != nil {
		t.Fatal(err)
	}
	if got := q.Metrics().Recomputations; got != recomputes {
		t.Fatalf("far-corner mutations forced %d recomputations; the lazy filter must skip them", got-recomputes)
	}
	if q.Epoch() != st.Epoch() {
		t.Fatalf("query did not re-pin: epoch %d vs store %d", q.Epoch(), st.Epoch())
	}
}

// TestSiteWritesKeepResultCorrect is the network twin of
// TestInsertKeepsResultCorrect and TestRemoveKeepsResultCorrect:
// site inserts and removes go through the store while a pinned query walks
// a route, and every answer — after each write too, repaired lazily by the
// next Update or eagerly by Refresh — must match Dijkstra brute force.
func TestSiteWritesKeepResultCorrect(t *testing.T) {
	const k = 4
	for _, eager := range []bool{false, true} {
		name := "lazy"
		if eager {
			name = "eager"
		}
		t.Run(name, func(t *testing.T) {
			g, d := buildNetwork(t, 300, 40, 3)
			st, err := index.NewStore(index.Config{Network: g, NetworkSites: d.Sites()})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			q, err := NewNetworkQueryPinned(st, k, 1.6)
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			route, err := roadnet.RandomWalkRoute(g, 0, 3000, 8)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			writes := 0
			for step, dist := 0, 0.0; dist <= route.Length(); step, dist = step+1, dist+5 {
				pos := route.PositionAt(dist)
				got, err := q.Update(pos)
				if err != nil {
					t.Fatal(err)
				}
				checkNetKNN(t, st.Current().Network(), pos, got, k)
				if step%6 != 3 {
					continue
				}
				net := st.Current().Network()
				var m index.Mutation
				if rng.Intn(2) == 0 && net.Len() > 2*k {
					// Remove sometimes a current kNN member, sometimes any site.
					m = index.Mutation{Network: true, ID: q.Current()[rng.Intn(k)]}
					if rng.Intn(2) == 0 {
						m.ID = net.Sites()[rng.Intn(net.Len())]
					}
				} else {
					// Insert sometimes at the query's own edge, sometimes anywhere.
					v := pos.U
					for net.IsSite(v) {
						v = rng.Intn(g.NumVertices())
					}
					m = index.Mutation{Network: true, Insert: true, ID: v}
				}
				if _, err := applyOne(st, m); err != nil {
					t.Fatal(err)
				}
				writes++
				if eager {
					got, _, err = q.Refresh()
				} else {
					got, err = q.Update(pos)
				}
				if err != nil {
					t.Fatal(err)
				}
				checkNetKNN(t, st.Current().Network(), pos, got, k)
			}
			if writes < 20 {
				t.Fatalf("only %d site writes along the route", writes)
			}
		})
	}
}
