package main

import (
	"testing"
	"time"
)

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSchedule(start, 50_000) // one every 20 µs
	if s.period != 20*time.Microsecond {
		t.Fatalf("period = %v, want 20µs", s.period)
	}
	if got := s.due(0); !got.Equal(start) {
		t.Errorf("due(0) = %v, want the start", got)
	}
	if got := s.due(50_000); !got.Equal(start.Add(time.Second)) {
		t.Errorf("due(50000) = %v, want start+1s", got)
	}
}

func TestScheduleDueByCounts(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSchedule(start, 50_000)
	for _, c := range []struct {
		at   time.Duration
		want int
	}{
		{-time.Microsecond, 0}, // before the start nothing is due
		{0, 1},                 // datagram 0 is due at the start
		{19 * time.Microsecond, 1},
		{20 * time.Microsecond, 2},
		{time.Second, 50_001},
	} {
		if got := s.dueBy(start.Add(c.at)); got != c.want {
			t.Errorf("dueBy(start%+v) = %d, want %d", c.at, got, c.want)
		}
	}
	// dueBy and due agree: the first datagram not yet due is due later.
	for _, at := range []time.Duration{0, 7 * time.Microsecond, 333 * time.Millisecond} {
		now := start.Add(at)
		k := s.dueBy(now)
		if s.due(k-1).After(now) || !s.due(k).After(now) {
			t.Errorf("at %v: dueBy = %d but due(k-1) = %v, due(k) = %v", at, k, s.due(k-1), s.due(k))
		}
	}
}

func TestLatencyCountsGeneratorStall(t *testing.T) {
	// A generator stalled for 1 ms sends datagrams 0..49 late, all at
	// once; timed from the due time each carries the part of the stall
	// it waited through, not just its own short trip.
	start := time.Unix(100, 0)
	s := newSchedule(start, 50_000)
	sentAt := start.Add(time.Millisecond)
	trip := 30 * time.Microsecond
	for k := 0; k < 50; k++ {
		got := s.latency(k, sentAt.Add(trip))
		want := time.Millisecond - time.Duration(k)*20*time.Microsecond + trip
		if got != want {
			t.Fatalf("latency(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestOpenLatencyIgnoresStalledWindowAndLosses(t *testing.T) {
	// Five windows at 60 µs, one stalled window at 5 ms with some
	// datagrams lost: the median of window medians stays at 60 µs; the
	// p99 over all arrivals sees the stall.
	lat := make([]int64, 6*latWindow)
	for i := range lat {
		lat[i] = int64(60 * time.Microsecond)
	}
	stalled := lat[2*latWindow : 3*latWindow]
	for i := range stalled {
		stalled[i] = int64(5 * time.Millisecond)
		if i%10 == 0 {
			stalled[i] = -1
		}
	}
	p50, p99 := openLatency(lat)
	if p50 != 60 {
		t.Errorf("p50 = %v µs, want 60", p50)
	}
	if p99 != 5000 {
		t.Errorf("p99 = %v µs, want 5000", p99)
	}
}
