package netsim

import (
	"testing"

	"tva/internal/packet"
)

// TestPacketHopsAllocFree is the dynamic twin of the //tva:hotpath
// annotations on the per-packet path: a pooled packet crossing a
// two-hop path — Node.Send, Iface.Send, transmit completion, the wire,
// delivery, and the relay's forward — allocates nothing once the event
// slab and the packet pool are warm.
func TestPacketHopsAllocFree(t *testing.T) {
	s := New(1)
	src := newHopPath(s, 2)
	base := packet.Live()
	hop(s, src)
	if allocs := testing.AllocsPerRun(1000, func() { hop(s, src) }); allocs != 0 {
		t.Fatalf("a packet crossing two hops allocates %.2f times, want 0", allocs)
	}
	if live := packet.Live(); live != base {
		t.Fatalf("packet pool live count %d after the hops, want %d", live, base)
	}
}
