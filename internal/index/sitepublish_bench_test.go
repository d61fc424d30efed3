package index

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// benchSiteEpoch measures one network-site epoch publication — Branch,
// incremental insert+remove repair, publish — against a street grid of
// grid×grid vertices with nSites data objects.
func benchSiteEpoch(b *testing.B, grid, nSites int) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000))
	g, err := workload.Network(grid, bounds, 5)
	if err != nil {
		b.Fatal(err)
	}
	sites, err := workload.NetworkSites(g, nSites, 6)
	if err != nil {
		b.Fatal(err)
	}
	st, err := NewStore(Config{Network: g, NetworkSites: sites})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	taken := map[int]bool{}
	for _, s := range sites {
		taken[s] = true
	}
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := rng.Intn(g.NumVertices())
		for taken[v] {
			v = rng.Intn(g.NumVertices())
		}
		if _, err := applyOne(st, Mutation{Network: true, Insert: true, ID: v}); err != nil {
			b.Fatal(err)
		}
		if _, err := applyOne(st, Mutation{Network: true, ID: v}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreSitePublish is the network twin of
// BenchmarkStoreApplyPublish: the per-epoch publication cost of site
// mutations must stay sublinear in the network size (copy-on-write label
// pages + incremental cell repair), which CI checks by comparing the 8x
// network against the small one.
func BenchmarkStoreSitePublishSmall(b *testing.B) { benchSiteEpoch(b, 21, 75) }
func BenchmarkStoreSitePublishLarge(b *testing.B) { benchSiteEpoch(b, 64, 600) }
