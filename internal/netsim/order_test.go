package netsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tva/internal/packet"
	"tva/internal/sched"
	"tva/internal/tvatime"
)

// The event-order property test drives Sim and a naive reference model
// with one random script and requires identical logs. The reference
// keeps its events in an unsorted slice and runs the one with the
// smallest (time, insertion order) by linear scan; its links schedule
// plain closures for transmit completion and wire arrival. Whatever
// queue layout or event encoding Sim uses, it must fire events in the
// order this model does.

// orderAPI is the surface the script drives: the scheduling API plus
// packet injection on numbered links.
type orderAPI interface {
	Now() tvatime.Time
	At(t tvatime.Time, fn func())
	After(d tvatime.Duration, fn func())
	Every(period tvatime.Duration, fn func()) func()
	Step() bool
	Run(until tvatime.Time)
	send(link, id int)
}

// orderLink parameterizes one simplex link of the script's topology:
// link k joins node orderLinks[k].from to node orderLinks[k].to.
type orderLink struct {
	from, to int
	bps      int64
	delay    tvatime.Duration
	capPkts  int
}

// With 125-byte packets, 1 Mb/s serializes in exactly 1 ms and 2 Mb/s
// in 0.5 ms, so transmit completions, arrivals and millisecond-grid
// callbacks collide often and the tie-break is exercised.
var orderLinks = []orderLink{
	{from: 0, to: 1, bps: 1_000_000, delay: 2 * tvatime.Millisecond, capPkts: 4},
	{from: 1, to: 2, bps: 2_000_000, delay: 1 * tvatime.Millisecond, capPkts: 3},
	{from: 0, to: 2, bps: 1_000_000, delay: 3 * tvatime.Millisecond, capPkts: 8},
	{from: 2, to: 0, bps: 2_000_000, delay: 0, capPkts: 2},
}

const orderPktSize = 125

// orderScenario fixes the per-case knobs both models share.
type orderScenario struct {
	txBatch int
	jitter  []tvatime.Duration // per link; 0 = no impairment
	seed    int64
}

// --- reference model ---

type refEvent struct {
	at  tvatime.Time
	seq uint64
	fn  func()
}

type refLink struct {
	orderLink
	jitter tvatime.Duration
	rng    *rand.Rand
	q      []int
	busy   bool
}

type refSim struct {
	now    tvatime.Time
	seq    uint64
	q      []refEvent
	links  []*refLink
	onRecv func(node, id int)
	onDrop func(link, id int)
}

func (r *refSim) Now() tvatime.Time { return r.now }

func (r *refSim) At(t tvatime.Time, fn func()) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.q = append(r.q, refEvent{at: t, seq: r.seq, fn: fn})
}

func (r *refSim) After(d tvatime.Duration, fn func()) { r.At(r.now.Add(d), fn) }

func (r *refSim) Every(period tvatime.Duration, fn func()) func() {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		r.After(period, tick)
	}
	r.After(period, tick)
	return func() { stopped = true }
}

// next returns the index of the earliest (at, seq) event, or -1.
func (r *refSim) next() int {
	best := -1
	for i, ev := range r.q {
		if best < 0 || ev.at < r.q[best].at || (ev.at == r.q[best].at && ev.seq < r.q[best].seq) {
			best = i
		}
	}
	return best
}

func (r *refSim) Step() bool {
	i := r.next()
	if i < 0 {
		return false
	}
	ev := r.q[i]
	r.q = append(r.q[:i], r.q[i+1:]...)
	r.now = ev.at
	ev.fn()
	return true
}

func (r *refSim) Run(until tvatime.Time) {
	for {
		i := r.next()
		if i < 0 || r.q[i].at > until {
			break
		}
		r.Step()
	}
	if r.now < until {
		r.now = until
	}
}

func (r *refSim) send(link, id int) {
	l := r.links[link]
	if len(l.q) >= l.capPkts {
		r.onDrop(link, id)
		return
	}
	l.q = append(l.q, id)
	if !l.busy {
		l.busy = true
		r.txNext(l)
	}
}

// txNext starts the head packet's serialization; its completion puts
// it on the wire (arrival after delay plus a jitter draw) and then
// starts the next packet.
func (r *refSim) txNext(l *refLink) {
	if len(l.q) == 0 {
		l.busy = false
		return
	}
	id := l.q[0]
	l.q = l.q[1:]
	tx := tvatime.Duration(int64(orderPktSize) * 8 * int64(tvatime.Second) / l.bps)
	r.After(tx, func() {
		d := l.delay
		if l.jitter > 0 {
			d += tvatime.Duration(l.rng.Int63n(int64(l.jitter)))
		}
		r.After(d, func() { r.onRecv(l.to, id) })
		r.txNext(l)
	})
}

func newRefSim(sc orderScenario) *refSim {
	r := &refSim{}
	for k, ol := range orderLinks {
		r.links = append(r.links, &refLink{orderLink: ol, jitter: sc.jitter[k],
			rng: rand.New(rand.NewSource(sc.seed + int64(k)))})
	}
	return r
}

// --- Sim adapter ---

type simUnderTest struct {
	*Sim
	ifaces []*Iface
}

func (s *simUnderTest) send(link, id int) {
	pkt := &packet.Packet{Src: packet.Addr(id), Size: orderPktSize}
	s.ifaces[link].Send(pkt)
}

func newSimUnderTest(sc orderScenario, onRecv func(node, id int), onDrop func(link, id int)) *simUnderTest {
	s := &simUnderTest{Sim: New(sc.seed)}
	s.TxBatch = sc.txBatch
	var nodes []*Node
	for n := 0; n < 3; n++ {
		node := s.NewNode(fmt.Sprintf("n%d", n))
		node.Handler = HandlerFunc(func(pkt *packet.Packet, _ *Iface) { onRecv(n, int(pkt.Src)) })
		nodes = append(nodes, node)
	}
	for k, ol := range orderLinks {
		out, _ := Connect(nodes[ol.from], nodes[ol.to], ol.bps, ol.delay, sched.NewDropTailPkts(ol.capPkts), nil)
		out.OnDrop = func(pkt *packet.Packet) { onDrop(k, int(pkt.Src)) }
		if sc.jitter[k] > 0 {
			out.SetImpairment(ImpairConfig{Seed: sc.seed + int64(k), Jitter: sc.jitter[k]})
		}
		s.ifaces = append(s.ifaces, out)
	}
	return s
}

// --- the script ---

// orderScript is one model's run of the random script. Every decision
// draws from rng in firing order, so two models that fire events in the
// same order make the same decisions and write the same log; the first
// reordering shows as a log divergence.
type orderScript struct {
	api    orderAPI
	rng    *rand.Rand
	log    strings.Builder
	nextID int
	budget int
}

func (sc *orderScript) logf(format string, args ...any) {
	fmt.Fprintf(&sc.log, "%d ", sc.api.Now())
	fmt.Fprintf(&sc.log, format, args...)
	sc.log.WriteByte('\n')
}

// delay draws a scheduling offset that is often zero or on the
// millisecond grid, so equal-time ties are common.
func (sc *orderScript) delay() tvatime.Duration {
	switch sc.rng.Intn(4) {
	case 0:
		return 0
	case 1, 2:
		return tvatime.Duration(sc.rng.Intn(6)) * tvatime.Millisecond / 2
	default:
		return tvatime.Duration(sc.rng.Int63n(int64(5 * tvatime.Millisecond)))
	}
}

// schedule arms one new callback event, by At or After.
func (sc *orderScript) schedule() {
	if sc.budget <= 0 {
		return
	}
	sc.budget--
	sc.nextID++
	id := sc.nextID
	fire := func() { sc.logf("ev %d", id); sc.react() }
	if sc.rng.Intn(2) == 0 {
		// Occasionally in the past: At clamps to now.
		sc.api.At(sc.api.Now().Add(sc.delay()-tvatime.Millisecond/2), fire)
	} else {
		sc.api.After(sc.delay(), fire)
	}
}

// inject sends a new packet on a random link.
func (sc *orderScript) inject() {
	if sc.budget <= 0 {
		return
	}
	sc.budget--
	sc.nextID++
	sc.api.send(sc.rng.Intn(len(orderLinks)), sc.nextID)
}

// react is what a firing callback or an arriving packet does: schedule
// more events, send packets, start a ticker, or run a nested horizon.
func (sc *orderScript) react() {
	for n := sc.rng.Intn(3); n > 0; n-- {
		switch k := sc.rng.Intn(20); {
		case k < 10:
			sc.schedule()
		case k < 17:
			sc.inject()
		case k < 19:
			sc.ticker()
		default:
			// A nested Run from inside a handler: events up to the
			// inner horizon fire before this handler returns.
			h := sc.api.Now().Add(sc.delay())
			sc.logf("nested run to %d", h)
			sc.api.Run(h)
			sc.logf("nested run back")
		}
	}
}

// ticker starts an Every that stops itself after a few ticks.
func (sc *orderScript) ticker() {
	if sc.budget <= 0 {
		return
	}
	sc.budget--
	sc.nextID++
	id, ticks, limit := sc.nextID, 0, 1+sc.rng.Intn(4)
	period := tvatime.Millisecond * tvatime.Duration(1+sc.rng.Intn(3))
	var stop func()
	stop = sc.api.Every(period, func() {
		ticks++
		sc.logf("tick %d.%d", id, ticks)
		if ticks == limit {
			stop()
		}
		sc.react()
	})
}

// run drives the script: a few seed events and packets, then the loop
// through successive Run horizons and bare Steps until a bare Step
// finds the queue empty.
func (sc *orderScript) run(seed int64) string {
	sc.rng = rand.New(rand.NewSource(seed))
	sc.budget = 400
	for i := 0; i < 12; i++ {
		sc.schedule()
		if i%3 == 0 {
			sc.inject()
		}
	}
	api := sc.api
	for {
		if sc.rng.Intn(4) == 0 {
			if !api.Step() {
				break
			}
			sc.logf("step")
			continue
		}
		h := api.Now().Add(sc.delay() + tvatime.Millisecond)
		api.Run(h)
		sc.logf("run to %d", h)
		if sc.rng.Intn(3) == 0 {
			sc.schedule()
		}
	}
	api.Run(api.Now().Add(tvatime.Second))
	sc.logf("end")
	return sc.log.String()
}

// TestEventOrderMatchesReference checks random schedules against the
// reference model: equal-time ties, At in the past, events scheduled
// from handlers, nested Run horizons, Every with stop, bare Steps,
// packets on links with and without jitter under several TxBatch
// settings, and a sequence-number renumbering mid-run.
func TestEventOrderMatchesReference(t *testing.T) {
	cases := 300
	if testing.Short() {
		cases = 40
	}
	for c := 0; c < cases; c++ {
		seed := int64(c + 1)
		rng := rand.New(rand.NewSource(-seed))
		scen := orderScenario{
			txBatch: []int{0, 1, 2, 4, 32}[rng.Intn(5)],
			jitter:  make([]tvatime.Duration, len(orderLinks)),
			seed:    seed,
		}
		for k := range scen.jitter {
			if rng.Intn(2) == 0 {
				scen.jitter[k] = tvatime.Duration(1 + rng.Int63n(int64(3*tvatime.Millisecond)))
			}
		}

		ref, got := &orderScript{}, &orderScript{}
		rs := newRefSim(scen)
		rs.onRecv = ref.recv
		rs.onDrop = ref.drop
		ref.api = rs
		ss := newSimUnderTest(scen, got.recv, got.drop)
		if c%4 == 0 {
			// Start near the end of the sequence space, so the queue
			// renumbers its pending events mid-script.
			ss.events.seq = maxSeq - 50
		}
		got.api = ss

		want, have := ref.run(seed), got.run(seed)
		if want != have {
			t.Fatalf("case %d (TxBatch=%d, jitter=%v): Sim diverges from the reference model\n%s",
				c, scen.txBatch, scen.jitter, firstDivergence(want, have))
		}
		if !strings.Contains(want, "recv") || !strings.Contains(want, "tick") {
			t.Fatalf("case %d: the script delivered no packets or ran no ticker:\n%s", c, want)
		}
	}
}

func (sc *orderScript) recv(node, id int) {
	sc.logf("recv n%d p%d", node, id)
	sc.react()
}

func (sc *orderScript) drop(link, id int) { sc.logf("drop l%d p%d", link, id) }

// firstDivergence renders the first differing log line with the lines
// leading up to it.
func firstDivergence(want, have string) string {
	w, h := strings.Split(want, "\n"), strings.Split(have, "\n")
	i := 0
	for i < len(w) && i < len(h) && w[i] == h[i] {
		i++
	}
	from := max(0, i-5)
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end of log>"
	}
	return fmt.Sprintf("line %d\ncontext:\n  %s\nreference: %s\nsim:       %s",
		i, strings.Join(w[from:i], "\n  "), line(w), line(h))
}
