package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// samples keeps every observed duration exactly, so percentiles never
// depend on a bucket layout. Safe for concurrent use.
type samples struct {
	mu sync.Mutex
	ns []int64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ns = append(s.ns, int64(d))
	s.mu.Unlock()
}

func (s *samples) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ns)
}

// quantileUS returns the nearest-rank q-quantile in microseconds (0 with
// no samples).
func (s *samples) quantileUS(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ns) == 0 {
		return 0
	}
	sorted := append([]int64(nil), s.ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return float64(sorted[rankIndex(len(sorted), q)]) / 1e3
}

func (s *samples) meanUS() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ns) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.ns {
		sum += float64(v)
	}
	return sum / float64(len(s.ns)) / 1e3
}

// rankIndex is the nearest-rank index of quantile q among n sorted values.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// midMean is the mean of the middle half of v: each window of a run is
// one value, and a window that a disturbance on the machine spoilt falls
// in the trimmed quarters.
func midMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := len(s) / 4
	s = s[cut : len(s)-cut]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// promSnapshot is one scrape of the daemon's /metrics: every series
// keyed by its full name with labels, e.g.
// `insq_stage_duration_seconds_count{stage="queue"}`.
type promSnapshot map[string]float64

func parseProm(r io.Reader) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		snap[line[:i]] = v
	}
	return snap, sc.Err()
}

// delta returns after-before for one series (0 when absent).
func delta(before, after promSnapshot, series string) float64 {
	return after[series] - before[series]
}

// stageDelta is the part of one insq_stage_duration_seconds series that
// was observed between two scrapes.
type stageDelta struct {
	count   float64
	sumS    float64
	buckets map[float64]float64 // bucket upper edge (s) -> observations in it
}

func stageBetween(before, after promSnapshot, stage string) stageDelta {
	const fam = "insq_stage_duration_seconds"
	lbl := `{stage="` + stage + `"}`
	d := stageDelta{
		count:   delta(before, after, fam+"_count"+lbl),
		sumS:    delta(before, after, fam+"_sum"+lbl),
		buckets: map[float64]float64{},
	}
	prefix := fam + `_bucket{stage="` + stage + `",le="`
	bEdges, bCum := buckets(before, prefix)
	aEdges, aCum := buckets(after, prefix)
	prevDelta := 0.0
	for i, edge := range aEdges {
		// The exporter elides empty buckets, so an edge missing from the
		// first scrape holds the cumulative count of the nearest lower one.
		j := sort.SearchFloat64s(bEdges, edge+edge*1e-12)
		prev := 0.0
		if j > 0 {
			prev = bCum[j-1]
		}
		cum := aCum[i] - prev
		if n := cum - prevDelta; n > 0 {
			d.buckets[edge] = n
		}
		prevDelta = cum
	}
	return d
}

// buckets returns one histogram's finite bucket edges (seconds) and
// cumulative counts, ascending by edge.
func buckets(snap promSnapshot, prefix string) (edges, cum []float64) {
	type b struct{ edge, cum float64 }
	var bs []b
	for series, v := range snap {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		edge, err := strconv.ParseFloat(strings.TrimSuffix(series[len(prefix):], `"}`), 64)
		if err != nil || math.IsInf(edge, 1) {
			continue
		}
		bs = append(bs, b{edge, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].edge < bs[j].edge })
	for _, x := range bs {
		edges = append(edges, x.edge)
		cum = append(cum, x.cum)
	}
	return edges, cum
}

func (d *stageDelta) merge(o stageDelta) {
	d.count += o.count
	d.sumS += o.sumS
	if d.buckets == nil {
		d.buckets = map[float64]float64{}
	}
	for edge, n := range o.buckets {
		d.buckets[edge] += n
	}
}

// meanUS is the exact mean from the _sum and _count series.
func (d stageDelta) meanUS() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sumS / d.count * 1e6
}

// quantileUS reads the q-quantile off the daemon's log-scale buckets,
// interpolating inside the bucket that holds it between that bucket's
// own edges in the shared layout. Per-layer figures only: a bucket is up
// to 12.5% wide.
func (d stageDelta) quantileUS(q float64) float64 {
	edges := make([]float64, 0, len(d.buckets))
	total := 0.0
	for edge, n := range d.buckets {
		edges = append(edges, edge)
		total += n
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(edges)
	target := q * total
	cum := 0.0
	for _, edge := range edges {
		n := d.buckets[edge]
		if cum+n >= target {
			lo := bucketLowerS(edge)
			return (lo + (target-cum)/n*(edge-lo)) * 1e6
		}
		cum += n
	}
	return edges[len(edges)-1] * 1e6
}

// bucketLowerS is the lower edge (s) of the layout bucket whose upper
// edge is edge (s). The exporter leaves empty buckets out, so the next
// edge it lists can lie far below this one.
func bucketLowerS(edge float64) float64 {
	i := metrics.BucketIndex(uint64(math.Round(edge * 1e9)))
	if i == 0 {
		return 0
	}
	return float64(metrics.BucketUpperNS(i-1)) / 1e9
}
