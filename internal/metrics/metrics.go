// Package metrics provides the power-of-two-bucketed Histogram and the
// Registry that every timing component publishes its statistics through:
// adopted plain counter fields, computed gauges and histograms.
//
// The registry solves a silent-correctness trap: the warmup/measure split
// of sim.Simulate requires every event counter in the machine to be zeroed
// at the window boundary, and with per-component ResetStats methods a new
// counter was one forgotten edit away from polluting measurements. Here a
// component registers each counter once, at construction, and a single
// Registry.Reset() covers all of them; a reflection guard test
// (internal/sim) fails if a counter-like field ever escapes the registry.
//
// Counters are plain fields and histograms plain values, updated by
// direct access — the hot paths (cache lookups, DRAM bookings, SVI lane
// issue) pay one integer add or, for histograms, a bit-length and three
// adds, with no allocation, locking, or map traffic.
package metrics

import "math/bits"

// histBuckets is the bucket count: bits.Len64 of a non-negative int64 is
// at most 63, so bucket indices span [0, 63].
const histBuckets = 64

// Histogram accumulates a latency (or any non-negative value)
// distribution in power-of-two buckets: bucket k counts observations v
// with bits.Len64(v) == k, i.e. v in [2^(k-1), 2^k - 1], and bucket 0
// counts exact zeros. A fixed 64-bucket array covers the full int64 range
// with no allocation on Observe — the property that lets histograms sit
// on the demand-load and DRAM hot paths.
type Histogram struct {
	count   int64
	sum     int64
	buckets [histBuckets]int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the average observed value.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns a bucket-interpolated estimate of the q-th quantile
// (0 < q <= 1): the rank is located in its power-of-two bucket and the
// value interpolated linearly across the bucket's [2^(k-1), 2^k - 1]
// span. Resolution is therefore the bucket width, but unlike the raw
// upper bound the estimate moves smoothly as mass shifts within a bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := quantileRank(q, h.count)
	var cum int64
	for k, n := range h.buckets {
		if n == 0 {
			continue
		}
		if cum+n >= target {
			return interpolateBucket(k, target-cum, n)
		}
		cum += n
	}
	return float64(bucketBound(histBuckets - 1))
}

// quantileRank converts a quantile into a 1-based rank, clamped to the
// observation count.
func quantileRank(q float64, count int64) int64 {
	target := int64(q * float64(count))
	if target < 1 {
		target = 1
	}
	if target > count {
		target = count
	}
	return target
}

// interpolateBucket places rank r of n observations linearly within
// bucket k's value span.
func interpolateBucket(k int, r, n int64) float64 {
	lo, hi := bucketLow(k), bucketBound(k)
	if lo >= hi || n <= 0 {
		return float64(hi)
	}
	frac := float64(r) / float64(n)
	return float64(lo) + frac*float64(hi-lo)
}

// bucketLow returns the inclusive lower bound of bucket k.
func bucketLow(k int) int64 {
	if k <= 0 {
		return 0
	}
	return int64(1) << (k - 1)
}

// Snapshot captures the distribution as a portable value.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	for k, n := range h.buckets {
		if n != 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: bucketBound(k), Count: n})
		}
	}
	return s
}

// bucketBound returns the inclusive upper bound of bucket k.
func bucketBound(k int) int64 {
	if k == 0 {
		return 0
	}
	if k >= 63 {
		return int64(^uint64(0) >> 1) // max int64
	}
	return int64(1)<<k - 1
}

// Bucket is one non-empty histogram bucket: Count observations with value
// <= Le (and greater than the previous bucket's bound).
type Bucket struct {
	Le    int64
	Count int64
}

// HistogramSnapshot is a point-in-time copy of a Histogram: per-bucket
// (non-cumulative) counts for the non-empty buckets, in ascending Le.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Buckets []Bucket `json:",omitempty"`
}

// Mean returns the average observed value.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 < q <= 1) — an upper estimate with power-of-two resolution.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= target {
			return b.Le
		}
	}
	return s.Buckets[len(s.Buckets)-1].Le
}

// QuantileEst returns the same bucket-interpolated quantile estimate as
// Histogram.Quantile, computed from the portable snapshot form.
func (s HistogramSnapshot) QuantileEst(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := quantileRank(q, s.Count)
	var cum int64
	for _, b := range s.Buckets {
		if cum+b.Count >= target {
			lo := snapshotBucketLow(b.Le)
			if lo >= b.Le || b.Count <= 0 {
				return float64(b.Le)
			}
			frac := float64(target-cum) / float64(b.Count)
			return float64(lo) + frac*float64(b.Le-lo)
		}
		cum += b.Count
	}
	return float64(s.Buckets[len(s.Buckets)-1].Le)
}

// snapshotBucketLow recovers a bucket's inclusive lower bound from its
// upper bound: buckets span [2^(k-1), 2^k - 1] with bucket 0 holding
// exact zeros.
func snapshotBucketLow(le int64) int64 {
	if le <= 0 {
		return 0
	}
	if le == int64(^uint64(0)>>1) { // top bucket, bound clamped to max int64
		return int64(1) << 62
	}
	return (le + 1) >> 1
}

// Sub returns the bucket-wise difference s - prev, the distribution of
// observations made after prev was taken.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum}
	old := make(map[int64]int64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		old[b.Le] = b.Count
	}
	for _, b := range s.Buckets {
		if d := b.Count - old[b.Le]; d != 0 {
			out.Buckets = append(out.Buckets, Bucket{Le: b.Le, Count: d})
		}
	}
	return out
}

// Add returns the bucket-wise sum s + o, the combined distribution of
// two disjoint observation windows (the inverse of Sub).
func (s HistogramSnapshot) Add(o HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Le < o.Buckets[j].Le):
			out.Buckets = append(out.Buckets, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Le < s.Buckets[i].Le:
			out.Buckets = append(out.Buckets, o.Buckets[j])
			j++
		default:
			out.Buckets = append(out.Buckets, Bucket{Le: s.Buckets[i].Le, Count: s.Buckets[i].Count + o.Buckets[j].Count})
			i++
			j++
		}
	}
	return out
}
