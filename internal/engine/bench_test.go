package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/workload"
)

// benchEngine builds an engine over nObjects uniform points.
func benchEngine(b *testing.B, nObjects, shards int) *Engine {
	b.Helper()
	e, err := New(Config{
		Shards:  shards,
		Bounds:  testBounds,
		Objects: workload.Uniform(nObjects, testBounds, 42),
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkEngineIndexMemory reports the resident index heap after
// building an engine, per shard count. With the shared snapshot store the
// reported index_MB must stay flat as shards grow (O(objects)); the
// replica design it replaced grew it linearly (O(shards × objects)).
func BenchmarkEngineIndexMemory(b *testing.B) {
	const nObjects = 20000
	for _, shards := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				objects := workload.Uniform(nObjects, testBounds, 42)
				runtime.GC()
				var before runtime.MemStats
				runtime.ReadMemStats(&before)
				e, err := New(Config{Shards: shards, Bounds: testBounds, Objects: objects})
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/(1<<20), "index_MB")
				e.Close()
			}
		})
	}
}

// BenchmarkEngineDataUpdate measures object insert/remove throughput with
// live sessions present. The store applies each mutation once
// (copy-on-write on the single canonical index), so ns/op must not grow
// with the shard count — the property the replica design's broadcast-apply
// lacked.
func BenchmarkEngineDataUpdate(b *testing.B) {
	const (
		nObjects  = 5000
		nSessions = 64
	)
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchEngine(b, nObjects, shards)
			defer e.Close()
			sids := make([]SessionID, nSessions)
			batch := make([]LocationUpdate, nSessions)
			for i := range sids {
				sid, err := e.CreateSession(5, 1.6)
				if err != nil {
					b.Fatal(err)
				}
				sids[i] = sid
				batch[i] = LocationUpdate{Session: sid, Pos: geom.Pt(float64(i%100)*10+5, float64(i%50)*20+5)}
			}
			if _, err := e.UpdateBatchCtx(context.Background(), batch); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var inserted []int
			for i := 0; i < b.N; i++ {
				if len(inserted) > 32 {
					id := inserted[0]
					inserted = inserted[1:]
					if _, err := applyOne(e, index.Mutation{ID: id}); err != nil {
						b.Fatal(err)
					}
					continue
				}
				p := geom.Pt(float64((i*131)%1000), float64((i*373)%1000))
				id, err := applyOne(e, index.Mutation{Insert: true, P: p})
				if err != nil {
					b.Fatal(err)
				}
				inserted = append(inserted, id)
			}
		})
	}
}

// BenchmarkEngineLocationUpdate measures the serving hot path: one batched
// location update round per iteration, all sessions moving.
func BenchmarkEngineLocationUpdate(b *testing.B) {
	const (
		nObjects  = 20000
		nSessions = 256
	)
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchEngine(b, nObjects, shards)
			defer e.Close()
			sids := make([]SessionID, nSessions)
			for i := range sids {
				sid, err := e.CreateSession(5, 1.6)
				if err != nil {
					b.Fatal(err)
				}
				sids[i] = sid
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := make([]LocationUpdate, nSessions)
				for j, sid := range sids {
					batch[j] = LocationUpdate{
						Session: sid,
						Pos:     geom.Pt(float64((i*7+j*13)%1000), float64((i*11+j*17)%1000)),
					}
				}
				results, err := e.UpdateBatchCtx(context.Background(), batch)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
