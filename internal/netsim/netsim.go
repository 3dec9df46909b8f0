// Package netsim is a packet-level discrete-event network simulator,
// the substrate the paper's ns-2 evaluation runs on (DESIGN.md §2).
//
// A simulation is a set of nodes joined by full-duplex links. Each
// direction of a link has a bandwidth, a propagation delay, and its own
// output scheduler (any sched.Scheduler), so TVA/SIFF/drop-tail routers
// differ only in the scheduler attached to each link direction and the
// node's packet handler. Packets occupy the link for size*8/bandwidth
// and arrive delay later, which reproduces exactly the queueing
// behaviour the paper's figures depend on.
package netsim

import (
	"fmt"
	"math/rand"
	"slices"

	"tva/internal/metrics"
	"tva/internal/packet"
	"tva/internal/sched"
	"tva/internal/telemetry"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// Sim is the event loop. It is single-goroutine: handlers run inline
// from Run.
type Sim struct {
	now     tvatime.Time
	events  eventQueue
	rng     *rand.Rand
	horizon tvatime.Time // active Run bound; 0 = no Run in progress

	// Spans, if set, is the flight recorder every lifecycle edge in
	// this simulation reports to. Attach it before building the
	// topology: Connect registers each interface as a trace hop, and
	// Node.Send assigns trace IDs to injected packets. Nil disables
	// tracing (a single pointer check per edge).
	Spans *trace.Recorder

	// TxBatch caps how many packets one interface transmit burst may
	// serve inline (see Iface.txNext). 0 or 1 is the classic
	// one-event-per-packet loop; larger values collapse quiet-window
	// transmissions into one event-loop visit without changing any
	// timestamp, which the same-seed trace-equivalence tests pin.
	TxBatch int

	// TxBursts/TxBurstPkts count transmit-loop visits that moved at
	// least one packet and the packets they moved; their ratio is the
	// burst fill level surfaced as a telemetry gauge.
	TxBursts    uint64
	TxBurstPkts uint64
}

// New returns a simulator with a deterministic RNG.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now implements tvatime.Clock.
func (s *Sim) Now() tvatime.Time { return s.now }

// Rand returns the simulation's RNG (deterministic per seed).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn at absolute time t (>= now).
func (s *Sim) At(t tvatime.Time, fn func()) { s.schedule(t, payload{kind: evFunc, fn: fn}) }

// After schedules fn d from now.
func (s *Sim) After(d tvatime.Duration, fn func()) { s.At(s.now.Add(d), fn) }

// schedule queues p to fire at t, clamped to now. Ties fire in
// scheduling order.
func (s *Sim) schedule(t tvatime.Time, p payload) {
	if t < s.now {
		t = s.now
	}
	s.events.push(t, p)
}

// Every schedules fn every period until the returned stop function is
// called. A stopped ticker never re-arms: at most one already-pending
// (now inert) event remains in the heap, so long sweeps do not
// accumulate live periodic events past the span they need them for.
func (s *Sim) Every(period tvatime.Duration, fn func()) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		s.After(period, tick)
	}
	s.After(period, tick)
	return func() { stopped = true }
}

// Step runs the earliest event; it reports false when no events remain.
func (s *Sim) Step() bool {
	if len(s.events.keys) == 0 {
		return false
	}
	at, p := s.events.pop()
	s.now = at
	switch p.kind {
	case evFunc:
		p.fn()
	case evTxDone:
		p.ifc.txComplete(p.pkt)
		p.ifc.txNext(true)
	case evDeliver:
		p.ifc.arrive(p.pkt)
	case evRetry:
		p.ifc.retry()
	}
	return true
}

// Run executes events until the queue empties or the clock passes
// until. Events scheduled beyond until remain pending. While Run is
// active its bound is the burst-inlining horizon: transmit bursts may
// advance the clock inline only across spans Run itself would have
// stepped through.
func (s *Sim) Run(until tvatime.Time) {
	prev := s.horizon
	s.horizon = until
	for len(s.events.keys) > 0 && s.events.keys[0].at <= until {
		s.Step()
	}
	s.horizon = prev
	if s.now < until {
		s.now = until
	}
}

// canInline reports whether an event at time t, if scheduled now,
// would be the very next event the loop pops — no pending event is at
// or before t (a same-time event would win the tie on sequence
// number), and the active Run covers t. When it holds, running the
// event's body inline with the clock advanced to t is
// indistinguishable from scheduling it: same state, same timestamps,
// same event order.
func (s *Sim) canInline(t tvatime.Time) bool {
	if s.horizon == 0 || t > s.horizon {
		return false
	}
	return len(s.events.keys) == 0 || s.events.keys[0].at > t
}

// TxBurstFill returns the mean packets moved per transmit-loop visit
// (1.0 when unbatched; up to TxBatch under backlog). Telemetry gauge.
func (s *Sim) TxBurstFill() float64 {
	if s.TxBursts == 0 {
		return 0
	}
	return float64(s.TxBurstPkts) / float64(s.TxBursts)
}

// evKind selects what an event does when it fires. The per-packet
// events name their interface and packet instead of capturing them in
// a closure, so a packet hop schedules without allocating.
type evKind uint8

const (
	evFunc    evKind = iota // run fn (At, After, Every)
	evTxDone                // ifc finished serializing pkt
	evDeliver               // pkt reaches the far end of ifc's wire
	evRetry                 // ifc's rate limiter may release a packet
)

// payload is an event's action; which fields are set depends on kind.
// A free slab slot holds only next.
type payload struct {
	fn   func()
	ifc  *Iface
	pkt  *packet.Packet
	kind evKind
	next uint32 // free list: the next free slot + 1, 0 at the end
}

// An eventKey's ord packs the event's sequence number above its slab
// slot: 2^28 pending events at most, and 2^36 sequence numbers before
// the queue renumbers.
const (
	slotBits = 28
	slotMask = 1<<slotBits - 1
	maxSeq   = 1<<(64-slotBits) - 1
)

// eventKey is one heap entry: the firing time, then ord, the
// scheduling sequence number in the high bits and the payload's slab
// slot in the low bits. Sequence numbers of pending events are unique,
// so comparing ord compares sequence numbers and the slot never
// decides an order.
type eventKey struct {
	at  tvatime.Time
	ord uint64
}

func (a eventKey) less(b eventKey) bool {
	return a.at < b.at || (a.at == b.at && a.ord < b.ord)
}

func compareKeys(a, b eventKey) int {
	switch {
	case a.less(b):
		return -1
	case b.less(a):
		return 1
	}
	return 0
}

// pageBits sizes a slab page: 256 payloads, 8 KB.
const (
	pageBits = 8
	pageMask = 1<<pageBits - 1
)

type slabPage [1 << pageBits]payload

// eventQueue is a binary min-heap of pointer-free keys ordered by
// (at, seq), plus the slab of payloads the keys index. Sifting moves
// 16-byte keys through a hole and never writes a pointer, so the GC
// has nothing to scan in the heap array and no write barrier fires on
// the sift path; a payload is written once when scheduled and cleared
// once when popped. The slab grows a page at a time and never moves,
// and freed slots are reused last-in first-out through a list threaded
// through the slab itself, so steady-state scheduling allocates
// nothing.
type eventQueue struct {
	seq   uint64 // sequence number of the latest push
	keys  []eventKey
	pages []*slabPage
	slots uint32 // slots handed out so far
	free  uint32 // head of the free list: slot + 1, or 0 when empty
	warm  evKind // written only so the payload touch in pop is kept
}

func (q *eventQueue) slot(i uint32) *payload { return &q.pages[i>>pageBits][i&pageMask] }

// push queues p at at, after every pending event with the same time.
func (q *eventQueue) push(at tvatime.Time, p payload) {
	if q.seq == maxSeq {
		q.renumber()
	}
	q.seq++
	var slot uint32
	if q.free != 0 {
		slot = q.free - 1
		sp := q.slot(slot)
		q.free = sp.next
		*sp = p
	} else {
		if q.slots > slotMask {
			panic("netsim: more than 2^28 events pending")
		}
		slot = q.slots
		q.slots++
		if slot>>pageBits == uint32(len(q.pages)) {
			//lint:ignore hotpath one page per 256 slots of pending-event high water; freed slots are reused
			q.pages = append(q.pages, new(slabPage))
		}
		*q.slot(slot) = p
	}
	k := eventKey{at: at, ord: q.seq<<slotBits | uint64(slot)}
	q.keys = append(q.keys, k)
	h := q.keys
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
}

// renumber gives the pending events sequence numbers 1..n in their
// current order, so sequence numbers never run out. A sorted array is
// a valid heap.
func (q *eventQueue) renumber() {
	slices.SortFunc(q.keys, compareKeys)
	for i := range q.keys {
		q.keys[i].ord = uint64(i+1)<<slotBits | q.keys[i].ord&slotMask
	}
	q.seq = uint64(len(q.keys))
}

// pop removes the earliest event and returns its time and payload.
func (q *eventQueue) pop() (tvatime.Time, payload) {
	h := q.keys
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.keys = h
	if n > 0 {
		i := 0
		for {
			m := 2*i + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && h[r].less(h[m]) {
				m = r
			}
			if !h[m].less(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	slot := uint32(top.ord & slotMask)
	sp := q.slot(slot)
	p := *sp
	// Dropping the closure and packet references lets the GC have them.
	*sp = payload{next: q.free}
	q.free = slot + 1
	if n > 0 {
		// Touch the new earliest event's payload: its slot is random in
		// the slab, and loading it now overlaps the cache miss with the
		// handler about to run instead of stalling the next pop.
		q.warm = q.slot(uint32(h[0].ord & slotMask)).kind
	}
	return top.at, p
}

// Handler processes packets arriving at a node. in is the interface
// the packet arrived on (nil for locally originated deliveries).
type Handler interface {
	Receive(pkt *packet.Packet, in *Iface)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(pkt *packet.Packet, in *Iface)

// Receive implements Handler.
func (f HandlerFunc) Receive(pkt *packet.Packet, in *Iface) { f(pkt, in) }

// Node is a host or router.
type Node struct {
	Sim     *Sim
	Name    string
	Handler Handler

	ifaces []*Iface
	routes map[packet.Addr]*Iface
	def    *Iface
}

// NewNode creates a node attached to the simulation.
func (s *Sim) NewNode(name string) *Node {
	return &Node{Sim: s, Name: name, routes: make(map[packet.Addr]*Iface)}
}

// Ifaces returns the node's interfaces in attachment order.
func (n *Node) Ifaces() []*Iface { return n.ifaces }

// AddRoute installs a host route for dst via the given interface.
func (n *Node) AddRoute(dst packet.Addr, via *Iface) { n.routes[dst] = via }

// SetDefault installs the default route.
func (n *Node) SetDefault(via *Iface) { n.def = via }

// Route returns the output interface for dst, or nil if unroutable.
func (n *Node) Route(dst packet.Addr) *Iface {
	if i, ok := n.routes[dst]; ok {
		return i
	}
	return n.def
}

// Send routes and transmits a locally originated or forwarded packet.
// Unroutable packets are silently dropped (and returned to the packet
// pool if pooled).
//
// With a flight recorder attached, Send is where a packet enters the
// traced world: the first routable Send assigns its monotonic trace ID
// and emits the send edge. Forwarded packets already carry an ID and
// get no second send edge.
func (n *Node) Send(pkt *packet.Packet) {
	out := n.Route(pkt.Dst)
	if out == nil {
		packet.Release(pkt)
		return
	}
	if rec := n.Sim.Spans; rec != nil && pkt.TraceID == 0 {
		pkt.TraceID = rec.NextID()
		sp := n.Sim.SpanFor(pkt, trace.EdgeSend)
		sp.Hop = out.Hop
		rec.Record(sp)
	}
	out.Send(pkt)
}

// SpanFor builds the base span for pkt at the current simulation time,
// with Hop set to trace.NoHop; callers fill in location fields and
// pass it to Spans.Record.
func (s *Sim) SpanFor(pkt *packet.Packet, edge trace.Edge) trace.Span {
	sp := trace.Span{
		ID:    pkt.TraceID,
		Time:  s.now,
		Src:   uint32(pkt.Src),
		Dst:   uint32(pkt.Dst),
		Size:  uint32(pkt.Size),
		Hop:   trace.NoHop,
		Edge:  edge,
		Class: uint8(pkt.Class),
	}
	if pkt.Hdr != nil {
		sp.Kind = uint8(pkt.Hdr.Kind) + 1
	}
	return sp
}

// String implements fmt.Stringer.
func (n *Node) String() string { return n.Name }

// IfaceStats counts traffic through one link direction. DroppedPkts
// counts enqueue (queue-full) drops only; LostPkts counts fault losses
// — wire loss, down-window cuts, and restart flushes — which are
// attributed by reason in Iface.FaultDrops.
type IfaceStats struct {
	EnqueuedPkts  uint64
	EnqueuedBytes uint64
	SentPkts      uint64
	SentBytes     uint64
	DroppedPkts   uint64
	DroppedBytes  uint64
	LostPkts      uint64
	LostBytes     uint64
}

// Iface is one direction of a link: the sending side's output queue
// plus the wire to the peer.
type Iface struct {
	Node  *Node
	Peer  *Iface
	Index int // index within Node.ifaces

	Bps   int64
	Delay tvatime.Duration
	Sched sched.Scheduler

	Stats IfaceStats

	// OnDrop, if set, observes packets dropped at enqueue (pushback's
	// drop-history hook).
	OnDrop func(pkt *packet.Packet)

	// QueueDelay, if set, observes each dequeued packet's time in this
	// output queue (virtual time between Enqueue and Dequeue). A single
	// nil check on the dequeue path; nil costs nothing.
	QueueDelay *telemetry.Histogram

	// WaitSketch, if set, streams the same per-packet queue wait into
	// the metrics layer's quantile sketch, feeding the live
	// tva_queue_wait_ns series. Same contract as QueueDelay: one nil
	// check, zero allocation.
	WaitSketch *metrics.Sketch

	// Tracer, if set, receives enqueue/dequeue/drop events for this
	// interface. TraceID labels the events (set it to the owning
	// router's id).
	Tracer  telemetry.Tracer
	TraceID int

	// Hop is this interface's identity in the span flight recorder
	// (registered by Connect when Sim.Spans is attached), or
	// trace.NoHop when the simulation is untraced.
	Hop uint16

	// FaultDrops attributes every fault loss on this interface —
	// link-loss, link-down, router-restart — by reason (impair.go).
	FaultDrops telemetry.DropCounters

	busy         bool
	retryPending bool
	down         bool
	impair       *Impairment
}

// Connect joins two nodes with a full-duplex link. bps and delay apply
// to both directions; schedAB is the output queue for a→b traffic and
// schedBA for b→a. It returns (a's iface, b's iface).
func Connect(a, b *Node, bps int64, delay tvatime.Duration, schedAB, schedBA sched.Scheduler) (*Iface, *Iface) {
	if schedAB == nil {
		schedAB = sched.NewDropTail(0)
	}
	if schedBA == nil {
		schedBA = sched.NewDropTail(0)
	}
	ia := &Iface{Node: a, Bps: bps, Delay: delay, Sched: schedAB, Index: len(a.ifaces), Hop: trace.NoHop}
	ib := &Iface{Node: b, Bps: bps, Delay: delay, Sched: schedBA, Index: len(b.ifaces), Hop: trace.NoHop}
	ia.Peer, ib.Peer = ib, ia
	a.ifaces = append(a.ifaces, ia)
	b.ifaces = append(b.ifaces, ib)
	if rec := a.Sim.Spans; rec != nil {
		ia.Hop = rec.RegisterHop(ia.String())
		ib.Hop = rec.RegisterHop(ib.String())
	}
	return ia, ib
}

// Send enqueues pkt on this interface's output queue and starts
// transmission if the link is idle.
//
//tva:hotpath
func (i *Iface) Send(pkt *packet.Packet) {
	sim := i.Node.Sim
	pkt.EnqueuedAt = sim.now
	if !i.Sched.Enqueue(pkt, sim.now) {
		i.Stats.DroppedPkts++
		i.Stats.DroppedBytes += uint64(pkt.Size)
		if i.OnDrop != nil {
			i.OnDrop(pkt)
		}
		var reason telemetry.DropReason
		if rc, ok := i.Sched.(sched.ReasonCounter); ok {
			reason = rc.LastDropReason()
		}
		if i.Tracer != nil {
			ev := i.traceEvent(pkt, telemetry.EventDrop)
			ev.Reason = reason
			i.Tracer.Record(ev)
		}
		if sim.Spans != nil && pkt.TraceID != 0 {
			sp := i.span(pkt, trace.EdgeDrop)
			sp.Reason = reason
			sim.Spans.Record(sp)
		}
		packet.Release(pkt)
		return
	}
	i.Stats.EnqueuedPkts++
	i.Stats.EnqueuedBytes += uint64(pkt.Size)
	if i.Tracer != nil {
		i.Tracer.Record(i.traceEvent(pkt, telemetry.EventEnqueue))
	}
	if sim.Spans != nil && pkt.TraceID != 0 {
		sim.Spans.Record(i.span(pkt, trace.EdgeEnqueue))
	}
	i.kick()
}

// span builds the flight-recorder span for pkt on this interface.
// Request-class enqueues carry the packet's most recent path id, the
// key of the fair queue it joined.
func (i *Iface) span(pkt *packet.Packet, edge trace.Edge) trace.Span {
	sp := i.Node.Sim.SpanFor(pkt, edge)
	sp.Hop = i.Hop
	if pkt.Class == packet.ClassRequest && pkt.Hdr != nil {
		if ids := pkt.Hdr.Request.PathIDs; len(ids) > 0 {
			sp.PathID = uint16(ids[len(ids)-1])
		}
	}
	return sp
}

// traceEvent builds the per-packet event for this interface.
func (i *Iface) traceEvent(pkt *packet.Packet, kind telemetry.EventKind) telemetry.Event {
	return telemetry.Event{
		Time:   i.Node.Sim.now,
		Kind:   kind,
		Router: i.TraceID,
		Src:    uint32(pkt.Src),
		Dst:    uint32(pkt.Dst),
		Class:  uint8(pkt.Class),
		Size:   pkt.Size,
	}
}

// kick starts the transmit loop if idle.
func (i *Iface) kick() {
	if i.busy {
		return
	}
	i.busy = true
	// Not a tail call: kick runs mid-event (inside an enqueue deep in
	// some handler's stack), where advancing the clock inline would
	// corrupt the rest of that event's callback.
	i.txNext(false)
}

// txTime returns the serialization delay of size bytes at the link rate.
func (i *Iface) txTime(size int) tvatime.Duration {
	if i.Bps <= 0 {
		return 0
	}
	return tvatime.Duration(int64(size) * 8 * int64(tvatime.Second) / i.Bps)
}

// txNext serves the output queue. One visit transmits up to
// Sim.TxBatch packets: after a packet's serialization time is
// computed, its completion normally becomes a heap event — but when
// no other event is due first (Sim.canInline), the completion is the
// event the loop would pop next, so it runs inline with the clock
// advanced to the completion instant and the loop dequeues the next
// packet immediately. Every observation (queue delay, tracer events,
// spans, launch) happens at exactly the virtual time it would have
// under the one-event-per-packet loop, which is why same-seed batched
// and unbatched runs produce byte-identical trace dumps.
//
// Inlining is only legal when txNext is the last statement of the
// running event (tail=true, the completion event's own callback). A
// kick from inside an enqueue is mid-event: code after it would
// observe the advanced clock and schedule at wrong times.
//
//tva:hotpath
func (i *Iface) txNext(tail bool) {
	sim := i.Node.Sim
	burst := 0
	for {
		if i.down {
			// The interface stops serving its queue while down;
			// SetDown(false) kicks the loop back into motion.
			i.busy = false
			break
		}
		pkt, retry := i.Sched.Dequeue(sim.now)
		if pkt == nil {
			i.busy = false
			if retry > sim.now && !i.retryPending {
				i.retryPending = true
				sim.schedule(retry, payload{kind: evRetry, ifc: i})
			}
			break
		}
		if i.QueueDelay != nil {
			i.QueueDelay.Observe(sim.now.Sub(pkt.EnqueuedAt))
		}
		if i.WaitSketch != nil {
			i.WaitSketch.Observe(int64(sim.now.Sub(pkt.EnqueuedAt)))
		}
		if i.Tracer != nil {
			i.Tracer.Record(i.traceEvent(pkt, telemetry.EventDequeue))
		}
		if sim.Spans != nil && pkt.TraceID != 0 {
			sim.Spans.Record(i.span(pkt, trace.EdgeDequeue))
		}
		done := sim.now.Add(i.txTime(pkt.Size))
		if tail && burst+1 < sim.TxBatch && sim.canInline(done) {
			sim.now = done
			i.txComplete(pkt)
			burst++
			continue
		}
		burst++
		sim.schedule(done, payload{kind: evTxDone, ifc: i, pkt: pkt})
		break
	}
	if burst > 0 {
		sim.TxBursts++
		sim.TxBurstPkts += uint64(burst)
	}
}

// txComplete finishes one packet's transmission: accounting, the tx
// span, and the move onto the wire.
//
//tva:hotpath
func (i *Iface) txComplete(pkt *packet.Packet) {
	sim := i.Node.Sim
	i.Stats.SentPkts++
	i.Stats.SentBytes += uint64(pkt.Size)
	if sim.Spans != nil && pkt.TraceID != 0 {
		sim.Spans.Record(i.span(pkt, trace.EdgeTx))
	}
	i.launch(pkt)
}

// retry is the rate limiter's wake-up: restart the transmit loop if
// it went idle with packets still queued.
func (i *Iface) retry() {
	i.retryPending = false
	if !i.busy && i.Sched.Len() > 0 {
		i.kick()
	}
}

// arrive hands pkt to the peer's handler at the end of its flight,
// unless an outage cut the link while it was on the wire.
func (i *Iface) arrive(pkt *packet.Packet) {
	if i.down {
		i.fault(pkt, telemetry.DropLinkDown)
		return
	}
	peer := i.Peer
	if peer.Node.Handler != nil {
		peer.Node.Handler.Receive(pkt, peer)
	}
}

// String implements fmt.Stringer.
func (i *Iface) String() string {
	return fmt.Sprintf("%s#%d->%s", i.Node.Name, i.Index, i.Peer.Node.Name)
}

// Utilization returns sent bytes as a fraction of what the link could
// have carried over the elapsed duration.
func (i *Iface) Utilization(elapsed tvatime.Duration) float64 {
	if elapsed <= 0 || i.Bps <= 0 {
		return 0
	}
	capacity := float64(i.Bps) / 8 * elapsed.Seconds()
	return float64(i.Stats.SentBytes) / capacity
}
