package main

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/api"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/roadnet"
	datagen "repro/internal/workload"
)

var testBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(spaceSide, spaceSide))

func TestPlaneOracleCatchesWrongAnswers(t *testing.T) {
	m := newPlaneModel(datagen.Uniform(2000, testBounds, 1))
	if err := oracleSelfCheck(m, 5, nil); err != nil {
		t.Fatal(err)
	}
	q := geom.Pt(1234, 4321)
	ids := m.brutePlaneIDs(q, 6)
	if err := m.checkPlane(q, 5, ids[:5]); err != nil {
		t.Fatalf("true answer rejected: %v", err)
	}
	wrong := map[string][]int{
		"sixth instead of fifth": append(ids[:4:4], ids[5]),
		"duplicate id":           append(ids[:4:4], ids[0]),
		"too few":                ids[:4],
	}
	for name, got := range wrong {
		if m.checkPlane(q, 5, got) == nil {
			t.Errorf("%s: wrong answer %v accepted", name, got)
		}
	}
	m.removePlane(ids[0])
	if m.checkPlane(q, 5, ids[:5]) == nil {
		t.Error("answer with a removed object accepted")
	}
}

func TestPlaneOracleAcceptsEitherTie(t *testing.T) {
	m := newPlaneModel([]geom.Point{geom.Pt(1, 0), geom.Pt(-1, 0), geom.Pt(0, 1), geom.Pt(5, 5)})
	q := geom.Pt(0, 0)
	for _, ids := range [][]int{{0, 1}, {1, 2}, {2, 0}} {
		if err := m.checkPlane(q, 2, ids); err != nil {
			t.Errorf("tied answer %v rejected: %v", ids, err)
		}
	}
	if m.checkPlane(q, 2, []int{0, 3}) == nil {
		t.Error("answer with a far object accepted")
	}
}

func TestNetworkOracleCatchesWrongAnswers(t *testing.T) {
	g, err := datagen.Network(12, testBounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := datagen.NetworkSites(g, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := newNetworkModel(g, sites)
	if err := oracleSelfCheck(m, 5, g); err != nil {
		t.Fatal(err)
	}
	u := 40
	v := g.AdjacentVertices(u)[0]
	pos := roadnet.Position{U: u, V: v, T: 0.3}
	// The oracle's own Dijkstra must agree with the graph's.
	want := g.ShortestDistances(pos.Sources(g), -1)
	for i, d := range m.netDistances(pos) {
		if d != want[i] {
			t.Fatalf("vertex %d: oracle distance %v, graph distance %v", i, d, want[i])
		}
	}
	ids := m.bruteNetworkIDs(pos, 6)
	if err := m.checkNetwork(pos, 5, ids[:5]); err != nil {
		t.Fatalf("true answer rejected: %v", err)
	}
	if m.checkNetwork(pos, 5, append(ids[:4:4], ids[5])) == nil {
		t.Error("answer with the sixth-nearest site accepted")
	}
	m.setSite(ids[0], false)
	if m.checkNetwork(pos, 5, ids[:5]) == nil {
		t.Error("answer with a removed site accepted")
	}
}

func TestReplicaFollowsDeltasAndFlagsBadOnes(t *testing.T) {
	p := newPushTracker()
	p.onEvent(api.SessionEvent{Session: 1, Seq: 1, Cause: "snapshot", KNN: []int{1, 2, 3}})
	p.onEvent(api.SessionEvent{Session: 1, Seq: 2, Cause: "move", KNN: []int{2, 3, 4}, Added: []int{4}, Removed: []int{1}})
	if got := p.replicaOf(1); !sameSet(got, []int{2, 3, 4}) || len(p.broken) != 0 {
		t.Fatalf("replica %v, broken %v", keys(got), p.broken)
	}
	// A gap re-baselines from the event's full set without complaint.
	p.onEvent(api.SessionEvent{Session: 1, Seq: 5, Cause: "data", KNN: []int{7, 8, 9}})
	if got := p.replicaOf(1); !sameSet(got, []int{7, 8, 9}) || len(p.broken) != 0 {
		t.Fatalf("after gap: replica %v, broken %v", keys(got), p.broken)
	}
	// Deltas that do not produce the event's set are reported.
	p.onEvent(api.SessionEvent{Session: 1, Seq: 6, Cause: "move", KNN: []int{7, 8, 10}, Added: []int{11}, Removed: []int{9}})
	if len(p.broken) != 1 {
		t.Fatalf("inconsistent delta not flagged: %v", p.broken)
	}
}

func TestStageDeltaAcrossElidedBuckets(t *testing.T) {
	// Two buckets of the daemon's layout, with the exporter's edge format.
	hi := metrics.BucketIndex(4000)
	lowNS, hiNS := metrics.BucketUpperNS(metrics.BucketIndex(1000)), metrics.BucketUpperNS(hi)
	le := func(ns uint64) string {
		return `insq_stage_duration_seconds_bucket{stage="queue",le="` + strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64) + `"}`
	}
	inf := `insq_stage_duration_seconds_bucket{stage="queue",le="+Inf"}`
	before := promSnapshot{
		le(lowNS): 5, inf: 5,
		`insq_stage_duration_seconds_count{stage="queue"}`: 5,
		`insq_stage_duration_seconds_sum{stage="queue"}`:   4e-6,
	}
	// Two new observations land in a bucket the first scrape elided, one
	// in the old bucket.
	after := promSnapshot{
		le(lowNS): 6, le(hiNS): 8, inf: 8,
		`insq_stage_duration_seconds_count{stage="queue"}`: 8,
		`insq_stage_duration_seconds_sum{stage="queue"}`:   11e-6,
	}
	d := stageBetween(before, after, "queue")
	if d.count != 3 || len(d.buckets) != 2 {
		t.Fatalf("delta %+v", d)
	}
	if got := d.meanUS(); got < 2.33 || got > 2.34 {
		t.Errorf("mean %v us, want 7/3", got)
	}
	// The quantile stays inside the layout bucket that holds it, not
	// between the two edges the scrape happened to list.
	loUS, hiUS := float64(metrics.BucketUpperNS(hi-1))/1e3, float64(hiNS)/1e3
	for _, q := range []float64{0.5, 0.99} {
		if got := d.quantileUS(q); got < loUS || got > hiUS {
			t.Errorf("p%v %v us, want inside [%v, %v]", 100*q, got, loUS, hiUS)
		}
	}
	// Half of one observation into the first bucket reads that bucket's midpoint.
	one := stageDelta{count: 1, buckets: map[float64]float64{float64(hiNS) / 1e9: 1}}
	if got, want := one.quantileUS(0.5), (loUS+hiUS)/2; math.Abs(got-want) > 1e-6 {
		t.Errorf("single-bucket p50 %v us, want %v", got, want)
	}
}
