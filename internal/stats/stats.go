// Package stats provides the measurement primitives used across the
// simulator: counters, histograms, time-weighted means, geometric means, and
// the mutual-information computation from the paper's Eq. 1.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean is a running arithmetic mean.
type Mean struct {
	n   uint64
	sum float64
}

// Add records one observation.
func (m *Mean) Add(v float64) { m.n++; m.sum += v }

// N returns the number of observations.
func (m *Mean) N() uint64 { return m.n }

// Value returns the mean, or 0 with no observations.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// TimeWeighted integrates a piecewise-constant quantity over time, yielding
// its time-weighted average (e.g., queue occupancy, outstanding requests).
type TimeWeighted struct {
	lastT    uint64
	lastV    float64
	integral float64
	started  bool
	startT   uint64
}

// Set records that the quantity changed to v at time t.
func (w *TimeWeighted) Set(t uint64, v float64) {
	if !w.started {
		w.started = true
		w.startT = t
	} else if t > w.lastT {
		w.integral += w.lastV * float64(t-w.lastT)
	}
	w.lastT = t
	w.lastV = v
}

// Avg returns the time-weighted average over [start, t].
func (w *TimeWeighted) Avg(t uint64) float64 {
	if !w.started || t <= w.startT {
		return 0
	}
	integral := w.integral
	if t > w.lastT {
		integral += w.lastV * float64(t-w.lastT)
	}
	return integral / float64(t-w.startT)
}

// Reset restarts integration at time t keeping the current value.
func (w *TimeWeighted) Reset(t uint64) {
	w.integral = 0
	w.startT = t
	w.lastT = t
	w.started = true
}

// Histogram is a fixed-width-bucket histogram over [0, max).
type Histogram struct {
	bucketWidth float64
	buckets     []uint64
	overflow    uint64
	n           uint64
	sum         float64
	samples     []float64 // retained when sampling is enabled
	keep        bool
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(nBuckets int, width float64) *Histogram {
	return &Histogram{bucketWidth: width, buckets: make([]uint64, nBuckets)}
}

// KeepSamples retains raw samples (needed for medians/mutual information).
func (h *Histogram) KeepSamples() { h.keep = true }

// Add records an observation.
func (h *Histogram) Add(v float64) {
	h.n++
	h.sum += v
	if h.keep {
		h.samples = append(h.samples, v)
	}
	idx := int(v / h.bucketWidth)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.buckets) {
		h.overflow++
		return
	}
	h.buckets[idx]++
}

// N returns the observation count.
func (h *Histogram) N() uint64 { return h.n }

// Mean returns the arithmetic mean of observations.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Median returns the exact median; requires KeepSamples.
func (h *Histogram) Median() float64 {
	if !h.keep || len(h.samples) == 0 {
		return 0
	}
	s := make([]float64, len(h.samples))
	copy(s, h.samples)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Percentile returns the p-th percentile (0..100); requires KeepSamples.
func (h *Histogram) Percentile(p float64) float64 {
	if !h.keep || len(h.samples) == 0 {
		return 0
	}
	s := make([]float64, len(h.samples))
	copy(s, h.samples)
	sort.Float64s(s)
	idx := int(p / 100 * float64(len(s)-1))
	return s[idx]
}

// Samples returns the retained raw observations (nil unless KeepSamples).
func (h *Histogram) Samples() []float64 { return h.samples }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// Overflow returns the count of observations at or above the bucketed
// range.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Merge folds other's observations into h. Both histograms must have the
// same bucket layout. Retained samples are merged only if h keeps them.
func (h *Histogram) Merge(other *Histogram) {
	if h.bucketWidth != other.bucketWidth || len(h.buckets) != len(other.buckets) {
		panic(fmt.Sprintf("stats: Merge of mismatched histograms (%d x %g vs %d x %g)",
			len(h.buckets), h.bucketWidth, len(other.buckets), other.bucketWidth))
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.overflow += other.overflow
	h.n += other.n
	h.sum += other.sum
	if h.keep {
		h.samples = append(h.samples, other.samples...)
	}
}

// Counts is a Histogram's contents in compact form: the observation count,
// sum and overflow, and the non-empty buckets in increasing index order.
// Retained samples are not part of it.
type Counts struct {
	N, Overflow uint64
	Sum         float64
	Buckets     []BucketCount
}

// BucketCount is one non-empty bucket of Counts.
type BucketCount struct {
	Index uint32
	Count uint64
}

// Counts returns h's contents in compact form.
func (h *Histogram) Counts() Counts {
	c := Counts{N: h.n, Overflow: h.overflow, Sum: h.sum}
	used := 0
	for _, n := range h.buckets {
		if n != 0 {
			used++
		}
	}
	if used > 0 { // sized exactly: snapshots are retained
		c.Buckets = make([]BucketCount, 0, used)
	}
	for i, n := range h.buckets {
		if n != 0 {
			c.Buckets = append(c.Buckets, BucketCount{Index: uint32(i), Count: n})
		}
	}
	return c
}

// AddCounts folds c's observations into h, which must have a bucket for
// each of c's indices.
func (h *Histogram) AddCounts(c Counts) {
	h.n += c.N
	h.sum += c.Sum
	h.overflow += c.Overflow
	for _, b := range c.Buckets {
		h.buckets[b.Index] += b.Count
	}
}

// SubCounts takes c's observations out of h: the inverse of AddCounts, for
// a c taken from h (or from what h accumulated) earlier.
func (h *Histogram) SubCounts(c Counts) {
	h.n -= c.N
	h.sum -= c.Sum
	h.overflow -= c.Overflow
	for _, b := range c.Buckets {
		h.buckets[b.Index] -= b.Count
	}
}

// Quantile returns an upper bound on the q-th quantile (0 < q <= 1) from
// bucket counts alone: the upper edge of the bucket containing the
// ceil(q*N)-th smallest observation. Observations beyond the bucketed
// range clamp to the range maximum. Unlike Percentile it needs no
// retained samples, so memory stays bounded regardless of N; the result
// is exact to within one bucket width.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			return float64(i+1) * h.bucketWidth
		}
	}
	return float64(len(h.buckets)) * h.bucketWidth
}

// GeoMean returns the geometric mean of vs; zero/negative inputs are invalid.
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", v))
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// MutualInfo computes the paper's Eq. 1: the mutual information (in bits)
// between a binary victim behaviour B and a binary attacker observation O,
// where p1 = P(O=long | B=stash) and p2 = P(O=long | B=tree), assuming the
// two behaviours are a-priori equally likely.
//
// M = Σ over the four (B,O) cells of P(B,O) log2( P(B,O) / (P(B)P(O)) ).
func MutualInfo(p1, p2 float64) float64 {
	term := func(p, q float64) float64 {
		// p/2 * log2(2p/(p+q)), with 0 log 0 = 0.
		if p == 0 {
			return 0
		}
		return p / 2 * math.Log2(2*p/(p+q))
	}
	return term(p1, p2) + term(p2, p1) + term(1-p1, 1-p2) + term(1-p2, 1-p1)
}

// ChiSquareUniform returns the chi-square statistic for observed counts
// against a uniform expectation, and the degrees of freedom.
func ChiSquareUniform(counts []uint64) (chi2 float64, dof int) {
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(counts) < 2 {
		return 0, 0
	}
	expected := float64(total) / float64(len(counts))
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	return chi2, len(counts) - 1
}
