package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
		{[]float64{1.5, 2.5, 2.5, 100, 3}, [3]float64{2, 2.5, 51.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	xs := []float64{9, 1, 5, 3}
	if got := median(xs); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if xs[0] != 9 || xs[3] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{7, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestIQRFrac(t *testing.T) {
	// quartiles 2.75, 5.5, 8.25: spread (8.25-2.75)/5.5 = 1.
	if got := iqrFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrFrac = %v, want 1", got)
	}
	if got := iqrFrac([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("iqrFrac of constants = %v, want 0", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]int64, 100)
	for i := range samples {
		samples[i] = int64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentileNs(samples, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentileNs(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %d, want 0", got)
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := newRing(4)
	for v := int64(1); v <= 3; v++ {
		r.record(v)
	}
	if got := len(r.samples()); got != 3 {
		t.Fatalf("partial ring holds %d samples, want 3", got)
	}
	for v := int64(4); v <= 10; v++ {
		r.record(v)
	}
	sum := int64(0)
	for _, v := range r.samples() {
		sum += v
	}
	if sum != 7+8+9+10 {
		t.Errorf("full ring holds %v, want the last four samples 7..10", r.samples())
	}
	r.reset()
	if len(r.samples()) != 0 {
		t.Errorf("reset ring holds %v", r.samples())
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(16, "root", "child")
	us := func(n int64) int64 { return n * int64(time.Microsecond) }
	// root [0,100) with children [10,30) and [50,90): self 40 + 20 + 40.
	tr.buf[0] = span{name: 0, parent: -1, start: 0, end: us(100)}
	tr.buf[1] = span{name: 1, parent: 0, start: us(10), end: us(30)}
	tr.buf[2] = span{name: 1, parent: 0, start: us(50), end: us(90)}
	tr.n = 3
	tr.fold()
	if got, want := tr.selfNs(0), us(40); got != want {
		t.Errorf("root self = %d, want %d", got, want)
	}
	if got, want := tr.selfNs(1), us(60); got != want {
		t.Errorf("child self = %d, want %d", got, want)
	}
	if tr.kept != 3 || tr.n != 0 {
		t.Errorf("after fold: kept %d, buffered %d", tr.kept, tr.n)
	}
	// Spans opened and closed through the API nest the same way.
	root := tr.begin(0, -1)
	tr.end(tr.begin(1, root))
	tr.end(root)
	if tr.buf[1].parent != root || tr.buf[0].end < tr.buf[1].end || tr.buf[1].start < tr.buf[0].start {
		t.Errorf("child span %+v not inside root %+v", tr.buf[1], tr.buf[0])
	}
	var off *tracer
	if h := off.begin(0, -1); h != -1 || !off.room(1000) {
		t.Errorf("nil tracer recorded a span")
	}
}
