package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"tva/internal/packet"
	"tva/internal/tvatime"
)

// BenchmarkEventQueue times one pop and one push of a no-op callback
// event with a steady number of events pending (the hold model): each
// event, when it fires, schedules its successor at a random offset.
// The fill-drain case is the benchmark's netsim.event_ns probe: 64k
// events at random times in one second, scheduled and then run.
func BenchmarkEventQueue(b *testing.B) {
	for _, bc := range []struct {
		name    string
		pending int
	}{{"pending=1k", 1 << 10}, {"pending=64k", 1 << 16}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			offsets := make([]tvatime.Duration, 1<<12)
			for i := range offsets {
				offsets[i] = tvatime.Duration(1 + rng.Int63n(int64(tvatime.Second)))
			}
			s := New(1)
			next := 0
			var hold func()
			hold = func() {
				next = (next + 1) & (len(offsets) - 1)
				s.After(offsets[next], hold)
			}
			for i := 0; i < bc.pending; i++ {
				hold()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
	b.Run("fill-drain-64k", func(b *testing.B) {
		const n = 1 << 16
		rng := rand.New(rand.NewSource(1))
		at := make([]tvatime.Time, n)
		for i := range at {
			at[i] = tvatime.Time(rng.Int63n(int64(tvatime.Second)))
		}
		fired := 0
		noop := func() { fired++ }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := New(1)
			for _, t := range at {
				s.At(t, noop)
			}
			s.Run(tvatime.Time(tvatime.Second))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
	})
}

// newHopPath builds a chain of hops 100 Mb/s, 1 ms links with
// drop-tail queues: every node forwards toward the last, which releases
// what it receives. It returns the first node.
func newHopPath(s *Sim, hops int) *Node {
	nodes := []*Node{s.NewNode("n0")}
	for h := 1; h <= hops; h++ {
		prev, n := nodes[h-1], s.NewNode(fmt.Sprintf("n%d", h))
		out, _ := Connect(prev, n, 100_000_000, tvatime.Millisecond, nil, nil)
		prev.SetDefault(out)
		if h > 1 {
			prev.Handler = HandlerFunc(func(pkt *packet.Packet, _ *Iface) { prev.Send(pkt) })
		}
		nodes = append(nodes, n)
	}
	nodes[hops].Handler = HandlerFunc(func(pkt *packet.Packet, _ *Iface) { packet.Release(pkt) })
	return nodes[0]
}

// hop sends one pooled packet from src and runs the loop dry.
func hop(s *Sim, src *Node) {
	sendPooled(s, src, 1, 1000)
	for s.Step() {
	}
}

// BenchmarkLinkHop times one pooled packet crossing one link hop:
// routing, enqueue, dequeue, transmit completion and wire arrival.
func BenchmarkLinkHop(b *testing.B) {
	s := New(1)
	src := newHopPath(s, 1)
	hop(s, src) // warm the queue and the packet pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop(s, src)
	}
}
