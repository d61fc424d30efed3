package metrics

import (
	"fmt"
	"math/bits"
	"time"
)

// histSubBits is the number of mantissa bits per octave: each power-of-two
// range of nanoseconds is split into 2^histSubBits sub-buckets, bounding the
// relative quantile error at 1/2^histSubBits (~12.5%).
const histSubBits = 3

// histBuckets covers the full uint64 nanosecond range at histSubBits
// resolution; 64 octaves x 8 sub-buckets is a comfortable upper bound.
const histBuckets = 64 << histSubBits

// Histogram is a log-scale latency histogram with bounded relative error,
// built for per-update latency stats: recording is one array increment
// (no allocation), merging is element-wise addition, and quantiles are
// read by walking the buckets. The zero value is ready to use. It is not
// safe for concurrent use; loadgen keeps one per worker and merges them
// when reporting (internal/obs has the lock-free form).
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    uint64 // total nanoseconds
	max    uint64 // largest recorded value, nanoseconds
}

// bucketIndex maps a nanosecond value to its bucket. Values below
// 2^histSubBits get exact unit buckets; larger values share an octave
// bucket with at most 2^-histSubBits relative width.
func bucketIndex(ns uint64) int {
	if ns < 1<<histSubBits {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 - histSubBits
	return exp<<histSubBits + int(ns>>exp)
}

// bucketValue returns the representative (midpoint) nanosecond value of
// bucket idx, the inverse of bucketIndex up to the bucket width.
func bucketValue(idx int) uint64 {
	if idx < 1<<histSubBits {
		return uint64(idx)
	}
	exp := idx>>histSubBits - 1
	lo := uint64(1<<histSubBits+idx&(1<<histSubBits-1)) << exp
	return lo + 1<<exp/2
}

// HistogramBuckets is the bucket count of the shared log-scale layout.
// internal/obs builds its lock-free (atomic-bucket) histograms on the same
// bucketing, so client-side and server-side quantiles agree exactly.
const HistogramBuckets = histBuckets

// BucketIndex is the exported bucketing function: it maps a nanosecond
// value to its bucket index in the shared layout.
func BucketIndex(ns uint64) int { return bucketIndex(ns) }

// BucketUpperNS returns the inclusive upper bound (in nanoseconds) of
// bucket idx — the Prometheus `le` edge of the bucket. Upper bounds are
// strictly increasing in idx, which is what makes a cumulative bucket walk
// over the layout monotone.
func BucketUpperNS(idx int) uint64 {
	if idx < 1<<histSubBits {
		return uint64(idx)
	}
	exp := idx>>histSubBits - 1
	lo := uint64(1<<histSubBits+idx&(1<<histSubBits-1)) << exp
	return lo + 1<<exp - 1
}

// Record adds one observation. Negative durations are recorded as zero.
func (h *Histogram) Record(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.counts[bucketIndex(ns)]++
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

// Merge accumulates other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the average recorded duration, zero when empty.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Max returns the largest recorded duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Quantile returns the q-quantile (q in [0, 1]) of the recorded durations,
// accurate to the bucket width (~12.5% relative). Zero when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q*float64(h.count-1)) + 1 // 1-based rank of the target observation
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketValue(i)
			if v > h.max {
				v = h.max // the top bucket midpoint can overshoot the true maximum
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// Summary condenses the histogram into the fields reports use.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// SummaryOf condenses raw observations in the shared bucket layout —
// per-bucket counts plus their nanosecond sum and maximum — exactly as
// Summary would for a Histogram holding them; internal/obs reads its
// atomic histograms through it.
func SummaryOf(counts *[HistogramBuckets]uint64, sumNS, maxNS uint64) LatencySummary {
	h := Histogram{counts: *counts, sum: sumNS, max: maxNS}
	for _, c := range counts {
		h.count += c
	}
	return h.Summary()
}

// LatencySummary is a Histogram condensed to the usual reporting quantiles.
type LatencySummary struct {
	Count               uint64
	Mean, P50, P95, P99 time.Duration
	Max                 time.Duration
}

// String implements fmt.Stringer as one report row.
func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}
