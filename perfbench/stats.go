package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// same rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the spreads the benchmark prints match the
// ones an outside reader computes from its results. It needs at least
// two values; with fewer it returns the single value (or zeros) three
// times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // outside [0, 4] when clamped: Python extrapolates too
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// iqrFrac is the distance between the first and third quartile as a
// share of the median: the run-to-run spread a bound is judged against.
func iqrFrac(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// describe prints the within-run distribution behind a reported
// median: how many samples, their quartiles and their spread.
func describe(what string, xs []float64) {
	q1, q2, q3 := quartiles(xs)
	fmt.Printf("# %s: n=%d median=%.6g q1=%.6g q3=%.6g iqr/median=%.4f\n", what, len(xs), q2, q1, q3, iqrFrac(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentileNs returns the nearest-rank q-quantile (0 < q <= 1) of a
// set of nanosecond samples, sorting samples in place. Nearest rank
// always reports a value that was actually observed.
func percentileNs(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return rankOf(samples, q)
}

// rankOf is percentileNs on an already sorted slice.
func rankOf(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// ring is a fixed-capacity sample store for the timed loops: record
// never allocates, and once full it overwrites the oldest sample, so a
// long run keeps its most recent cap samples.
type ring struct {
	buf []int64
	n   int // samples ever recorded
}

func newRing(capacity int) *ring { return &ring{buf: make([]int64, capacity)} }

func (r *ring) record(v int64) {
	r.buf[r.n%len(r.buf)] = v
	r.n++
}

// samples returns the retained samples (unordered).
func (r *ring) samples() []int64 {
	if r.n < len(r.buf) {
		return r.buf[:r.n]
	}
	return r.buf
}

// reset forgets every sample.
func (r *ring) reset() { r.n = 0 }
