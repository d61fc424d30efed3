// Command dataupdates demonstrates query maintenance under data object
// updates (Section III of the paper): while the query object moves, data
// objects are inserted and removed — new restaurants open, gas stations
// close. Writes go through the serving engine's one object-write entry,
// ApplyMutations; the moving session learns of them from the store's op
// log and refreshes its guard sets only when a write can actually affect
// them. The program cross-checks every post-write kNN set against a
// brute-force search over the live objects and exits non-zero on a stale
// one.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	insq "repro"
)

const k = 5

func main() {
	bounds := insq.NewRect(insq.Pt(0, 0), insq.Pt(1000, 1000))
	objects := insq.UniformPoints(1000, bounds, 21)
	e, err := insq.NewEngine(insq.EngineConfig{Shards: 1, Bounds: bounds, Objects: objects})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()
	sid, err := e.CreateSession(k, 1.6)
	if err != nil {
		log.Fatal(err)
	}

	// The live object set, kept client-side as the brute-force oracle.
	// Initial objects get dense ids in input order.
	live := make(map[int]insq.Point, len(objects))
	ids := make([]int, 0, len(objects))
	for id, p := range objects {
		live[id] = p
		ids = append(ids, id)
	}

	ctx := context.Background()
	update := func(pos insq.Point) []int {
		res, err := e.UpdateBatchCtx(ctx, []insq.LocationUpdate{{Session: sid, Pos: pos}})
		if err != nil {
			log.Fatal(err)
		}
		if res[0].Err != nil {
			log.Fatal(res[0].Err)
		}
		return res[0].KNN
	}

	rng := rand.New(rand.NewSource(22))
	traj := insq.RandomWaypoint(bounds, 2000, 2, 23)
	inserts, removes, verified := 0, 0, 0
	for step, pos := range traj {
		update(pos)

		// One data update every 50 timestamps.
		if step%50 != 25 {
			continue
		}
		if rng.Intn(2) == 0 {
			p := insq.Pt(rng.Float64()*1000, rng.Float64()*1000)
			got, err := e.ApplyMutations(ctx, []insq.Mutation{{Insert: true, P: p}})
			if err != nil {
				log.Fatal(err)
			}
			live[got[0]] = p
			ids = append(ids, got[0])
			inserts++
		} else if len(ids) > 100 {
			i := rng.Intn(len(ids))
			if _, err := e.ApplyMutations(ctx, []insq.Mutation{{ID: ids[i]}}); err != nil {
				log.Fatal(err)
			}
			delete(live, ids[i])
			ids = append(ids[:i], ids[i+1:]...)
			removes++
		}
		// The paper requires the result to reflect updates immediately;
		// verify against brute force over the live objects.
		if got, want := update(pos), bruteKNN(live, pos); !sameSet(got, want) {
			log.Fatalf("step %d: stale result %v, brute force %v", step, got, want)
		}
		verified++
	}

	st, err := e.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("moved %d steps with %d object inserts and %d removes (index now holds %d objects)\n",
		len(traj), inserts, removes, st.Objects)
	fmt.Printf("all %d post-update results verified against brute force\n", verified)
	fmt.Printf("kNN recomputations: %d — update-triggered refreshes only fire when the guard sets are affected\n",
		st.Counters.Recomputations)
}

// bruteKNN returns the k live objects nearest to q.
func bruteKNN(live map[int]insq.Point, q insq.Point) []int {
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := live[ids[i]].Dist2(q), live[ids[j]].Dist2(q)
		return di < dj || di == dj && ids[i] < ids[j]
	})
	return ids[:k]
}

func sameSet(a, b []int) bool {
	as, bs := append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
