package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/metrics"
	"tva/internal/overlay"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// socket-steady: the operator's normal case. The real batched
// overlay.Router (crypto suite, Batch 32, metrics registry ticking
// once a second as tvarouter does) forwards smallest-size datagrams
// from one driver socket back to it over loopback. The mix is nonce-
// only regulars on 1024 seeded flows (the cache holds 4096, so every
// lookup hits), with 2% renewals and 1% requests. Syscalls, bursts and
// port hand-offs do the work; capability MACs almost none.
//
// A closed loop with a fixed window in flight measures capacity and
// round trip. Traced runs add an open loop at a fixed 50 kpps, well
// below capacity, timed from each datagram's due time.
const (
	socketFlows        = 1024
	socketCycle        = 1 << 16
	socketCache        = 4096
	socketBatch        = 32
	socketWindow       = 64
	socketOpenRate     = 50_000
	socketRenewShare   = 0.02
	socketRequestShare = 0.01
	socketWarmupPkts   = 5_000
	catchUpBurst       = 4 * socketBatch
	socketWindowLen    = 500 * time.Millisecond
	socketTickEvery    = time.Second
	rttSlots           = 4096 // > datagrams in flight, so a slot is never reused early
)

var socketDst = packet.AddrFrom(30, 0, 0, 1)

type socketRig struct {
	mix   *mix
	pkts  [][]byte // the cycle, in send order
	kinds []pktKind
	srcs  []packet.Addr
	posOf map[uint64]int32 // identity (returned src, TTL) → cycle position

	router *overlay.Router
	rm     *overlay.RouterMetrics
	conn   *net.UDPConn
	dc     *driverConn

	stop   chan struct{}
	ticker sync.WaitGroup
	tickNs atomic.Int64 // RouterMetrics.Tick time, summed
	ticks  atomic.Int64

	next  int // next global sequence number to send
	match matcher
	// sentAt[k%rttSlots] is when datagram k left in the closed loop;
	// rtt collects the round trips of the current window.
	sentAt []time.Time
	rtt    []int64
	sent   int64 // every datagram the driver sent (setup included)
	recvd  int64 // every datagram the driver got back
	nReq   int64 // requests sent
	nRen   int64 // renewals sent
}

func buildSocketMix(seed int64, now tvatime.Time) (*socketRig, error) {
	rng := rand.New(rand.NewSource(seed))
	suite := capability.Crypto
	auth := capability.NewAuthority(suite, 0)
	flows := mintFlows(rng, auth, suite, now, socketFlows, packet.AddrFrom(10, 1, 0, 1),
		[]packet.Addr{socketDst}, packet.MaxNKB, packet.MaxTSeconds)
	rig := &socketRig{mix: &mix{suite: suite, auth: auth}, posOf: make(map[uint64]int32, socketCycle)}
	for _, f := range flows {
		rig.mix.seeds = append(rig.mix.seeds, f.packet(packet.KindRegular, 64))
		rig.mix.grants = append(rig.mix.grants, f.grant)
	}
	// Every datagram of the cycle is identifiable on return without a
	// payload: flows take turns, so one flow recurs at least
	// socketFlows positions apart, and the TTL changes every
	// socketFlows positions. Requests come from a distinct source each.
	next := 0
	for i := 0; i < socketCycle; i++ {
		ttl := uint8(2 + i/socketFlows)
		var raw []byte
		var kind pktKind
		var src packet.Addr
		switch x := rng.Float64(); {
		case x < socketRequestShare:
			src = packet.AddrFrom(13, 1, 0, 0) + packet.Addr(i)
			raw, kind = requestPkt(src, socketDst, ttl), kindRequest
		case x < socketRequestShare+socketRenewShare:
			f := flows[next%len(flows)]
			next++
			raw, kind, src = f.packet(packet.KindRenewal, ttl), kindRenewal, f.grant.src
		default:
			f := flows[next%len(flows)]
			next++
			raw, kind, src = f.packet(packet.KindNonceOnly, ttl), kindLegit, f.grant.src
		}
		key := uint64(src)<<8 | uint64(ttl-1) // the router decrements TTL
		if _, dup := rig.posOf[key]; dup {
			return nil, fmt.Errorf("socket mix: datagram identity %x repeats", key)
		}
		rig.posOf[key] = int32(i)
		rig.pkts = append(rig.pkts, raw)
		rig.kinds = append(rig.kinds, kind)
	}
	for i := 0; i < 4096; i += burstSize {
		rig.mix.bursts = append(rig.mix.bursts, burst{pkts: rig.pkts[i : i+burstSize], kinds: rig.kinds[i : i+burstSize]})
		rig.mix.pkts += burstSize
	}
	rig.match = matcher{rig: rig}
	rig.sentAt = make([]time.Time, rttSlots)
	rig.rtt = make([]int64, 0, 1<<18)
	return rig, nil
}

// newSocketRig builds the mix, the router and the driver, installs the
// seeded flows through the router and warms the path up.
func newSocketRig(seed int64) (*socketRig, error) {
	rig, err := buildSocketMix(seed, tvatime.WallClock{}.Now())
	if err != nil {
		return nil, err
	}
	r, err := overlay.NewRouter(overlay.RouterConfig{
		Listen: "127.0.0.1:0",
		Core: core.RouterConfig{
			Suite:         rig.mix.suite,
			CacheEntries:  socketCache,
			TrustBoundary: true,
			Authority:     rig.mix.auth,
		},
		Batch: socketBatch,
	})
	if err != nil {
		return nil, err
	}
	rig.router = r
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		r.Close()
		return nil, err
	}
	rig.conn = conn
	// The driver's own socket buffers are raised so that a stall of
	// the driver never drops datagrams on its side; the router's socket
	// keeps the system default, as tvarouter runs it.
	if err := conn.SetReadBuffer(4 << 20); err != nil {
		rig.close()
		return nil, err
	}
	if err := conn.SetWriteBuffer(4 << 20); err != nil {
		rig.close()
		return nil, err
	}
	if err := r.AddRoute(socketDst, conn.LocalAddr().String()); err != nil {
		rig.close()
		return nil, err
	}
	if rig.dc, err = newDriverConn(conn, r.Addr(), socketBatch); err != nil {
		rig.close()
		return nil, err
	}
	// The registry is built after the route exists so the port gets its
	// series, then ticked from its own goroutine, as tvarouter does.
	rig.rm = r.Metrics(600, metrics.DetectorConfig{})
	rig.rm.Tick(tvatime.WallClock{}.Now())
	rig.stop = make(chan struct{})
	rig.ticker.Add(1)
	go rig.tickLoop()

	if err := rig.seedFlows(); err != nil {
		rig.close()
		return nil, err
	}
	if _, _, err := rig.closedLoop(socketWarmupPkts, 0); err != nil {
		rig.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return rig, nil
}

func (rig *socketRig) tickLoop() {
	defer rig.ticker.Done()
	t := time.NewTicker(socketTickEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			start := time.Now()
			rig.rm.Tick(tvatime.WallClock{}.Now())
			rig.tickNs.Add(int64(time.Since(start)))
			rig.ticks.Add(1)
		case <-rig.stop:
			return
		}
	}
}

func (rig *socketRig) close() {
	if rig.stop != nil {
		close(rig.stop)
		rig.ticker.Wait()
		rig.stop = nil
	}
	if rig.router != nil {
		rig.router.Close()
	}
	if rig.conn != nil {
		rig.conn.Close()
	}
}

// seedFlows sends every flow's first (capability-carrying) packet
// through the router, installing its cache entry, and waits for all of
// them to come back.
func (rig *socketRig) seedFlows() error {
	seeds := rig.mix.seeds
	for i := 0; i < len(seeds); i += socketBatch {
		end := min(i+socketBatch, len(seeds))
		n, err := rig.dc.send(seeds[i:end])
		if err != nil {
			return fmt.Errorf("seed send: %w", err)
		}
		rig.sent += int64(n)
		for need := n; need > 0; {
			rig.setDeadline(time.Now().Add(2 * time.Second))
			got, err := rig.dc.recv()
			if err != nil {
				return fmt.Errorf("seeding stalled: %w", err)
			}
			rig.recvd += int64(got)
			need -= got
		}
	}
	return nil
}

// burstFrom fills dst with the datagrams for global sequence numbers
// k, k+1, ... and counts the requests and renewals among them.
func (rig *socketRig) burstFrom(dst [][]byte, k int) [][]byte {
	for j := range dst {
		i := (k + j) % socketCycle
		dst[j] = rig.pkts[i]
		switch rig.kinds[i] {
		case kindRequest:
			rig.nReq++
		case kindRenewal:
			rig.nRen++
		}
	}
	return dst
}

// matcher pairs each returned datagram with the sequence number it was
// sent as and checks it. Within a class the router keeps send order
// (one destination queue for regulars, one path-id queue for
// requests), so a datagram's sequence number is the first one after
// the last match of its class at its cycle position; datagrams in
// between were lost.
type matcher struct {
	rig          *socketRig
	last         [2]int // last matched sequence number per class (-1: none)
	started      bool
	scratch      packet.Packet
	mismatches   int64
	demoted      int64
	badStamps    int64
	firstFailure string
}

// match decodes a returned datagram, checks it and returns its global
// sequence number (ok false for a datagram that matches nothing).
func (m *matcher) match(data []byte) (int, bool) {
	if !m.started {
		m.last = [2]int{-1, -1}
		m.started = true
	}
	p := &m.scratch
	if err := p.UnmarshalReuse(data); err != nil || p.Hdr == nil {
		m.mismatches++
		m.fail("returned datagram does not decode as a TVA packet")
		return 0, false
	}
	pos, ok := m.rig.posOf[uint64(p.Src)<<8|uint64(p.TTL)]
	if !ok {
		m.mismatches++
		m.fail(fmt.Sprintf("returned datagram from %v (ttl %d) matches no datagram sent", p.Src, p.TTL))
		return 0, false
	}
	class := 0
	if p.Hdr.Kind == packet.KindRequest {
		class = 1
	}
	next := m.last[class] + 1
	k := next - next%socketCycle + int(pos)
	if k < next {
		k += socketCycle
	}
	m.last[class] = k
	kind := m.rig.kinds[pos]
	if p.Hdr.Demoted || (kind == kindRequest) != (p.Class == packet.ClassRequest) ||
		(kind != kindRequest && p.Class != packet.ClassRegular) {
		m.demoted++
		m.fail(fmt.Sprintf("datagram %d came back as class %v, demoted=%v (reason %d)", k, p.Class, p.Hdr.Demoted, p.Hdr.DemoteReason))
	}
	if (kind == kindRequest || kind == kindRenewal) && len(p.Hdr.Request.PreCaps) != 1 {
		m.badStamps++
		m.fail(fmt.Sprintf("datagram %d carries %d pre-capabilities, want 1", k, len(p.Hdr.Request.PreCaps)))
	}
	return k, true
}

func (m *matcher) fail(s string) {
	if m.firstFailure == "" {
		m.firstFailure = s
	}
}

func (m *matcher) failures() int64 { return m.mismatches + m.demoted + m.badStamps }

// closedLoop keeps socketWindow datagrams in flight, sending as many
// new ones as come back, until pkts have been sent (pkts > 0) or dur
// has passed, and collects each datagram's round trip in rig.rtt. It
// returns datagrams sent and received; the window is drained before it
// returns, so everything unaccounted for was lost.
func (rig *socketRig) closedLoop(pkts int, dur time.Duration) (sent, recvd int64, err error) {
	burstBuf := make([][]byte, socketBatch)
	sendN := func(n int) error {
		for n > 0 {
			k := min(n, socketBatch)
			if pkts > 0 {
				k = min(k, pkts-int(sent))
			}
			if k <= 0 {
				return nil
			}
			now := time.Now()
			got, err := rig.dc.send(rig.burstFrom(burstBuf[:k], rig.next))
			for j := 0; j < got; j++ {
				rig.sentAt[(rig.next+j)%rttSlots] = now
			}
			rig.next += got
			sent += int64(got)
			if err != nil {
				return err
			}
			n -= got
		}
		return nil
	}
	end := time.Now().Add(dur)
	if err := sendN(socketWindow); err != nil {
		return sent, recvd, err
	}
	for {
		done := (pkts > 0 && int(sent) >= pkts) || (pkts == 0 && !time.Now().Before(end))
		if done && recvd == sent {
			break
		}
		rig.setDeadline(time.Now().Add(500 * time.Millisecond))
		n, rerr := rig.dc.recv()
		if rerr != nil {
			if isTimeout(rerr) {
				break // the rest of the window was lost
			}
			return sent, recvd, rerr
		}
		now := time.Now()
		for i := 0; i < n; i++ {
			if k, ok := rig.match.match(rig.dc.payload(i)); ok && len(rig.rtt) < cap(rig.rtt) {
				rig.rtt = append(rig.rtt, int64(now.Sub(rig.sentAt[k%rttSlots])))
			}
		}
		recvd += int64(n)
		if !done {
			if err := sendN(n); err != nil {
				return sent, recvd, err
			}
		}
	}
	rig.sent += sent
	rig.recvd += recvd
	return sent, recvd, nil
}

// setDeadline bounds the next read. It fails only on a closed socket,
// and the read itself then reports that.
func (rig *socketRig) setDeadline(t time.Time) { _ = rig.conn.SetReadDeadline(t) }

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// openResult is what the open-loop phase measured.
type openResult struct {
	sent, recvd int64
	lat, late   []int64 // ns by sequence: arrival after due time (-1: lost); send after due time
}

// openLoop sends socketOpenRate datagrams per second for dur on a
// fixed schedule from one goroutine, receives on this one, and times
// each datagram from its due time.
func (rig *socketRig) openLoop(dur time.Duration) (openResult, error) {
	total := int(dur.Seconds() * socketOpenRate)
	res := openResult{lat: make([]int64, total), late: make([]int64, total)}
	for i := range res.lat {
		res.lat[i] = -1 // lost until it arrives
	}
	sch := newSchedule(time.Now().Add(5*time.Millisecond), socketOpenRate)
	base := rig.next
	var sendErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([][]byte, socketBatch)
		// After a stall the generator catches up at three times the
		// nominal rate, still below the router's capacity, in bursts of
		// at most catchUpBurst (a token bucket), not with the whole
		// backlog at once: that burst would overflow the router's socket
		// buffer, a loss the generator, not the router, caused. The delay
		// still counts: latency is timed from the due time.
		const catchUp = 3 * socketOpenRate
		tokens, last := float64(catchUpBurst), time.Now()
		var next time.Time
		for k := 0; k < total; {
			if d := sch.due(k); d.After(next) {
				next = d
			}
			sleepUntil(next)
			now := time.Now()
			tokens = min(catchUpBurst, tokens+now.Sub(last).Seconds()*catchUp)
			last = now
			n := min(max(sch.dueBy(now)-k, 1), total-k, int(tokens))
			if n < 1 {
				next = now.Add(time.Duration((1 - tokens) / catchUp * float64(time.Second)))
				continue
			}
			tokens -= float64(n)
			for j := 0; j < n; j++ {
				res.late[k+j] = int64(now.Sub(sch.due(k + j)))
			}
			for n > 0 {
				got, err := rig.dc.send(rig.burstFrom(buf[:min(n, socketBatch)], base+k))
				if err != nil {
					sendErr = err
					return
				}
				k += got
				n -= got
			}
		}
	}()
	var rerr error
	deadline := sch.due(total).Add(time.Second)
	for int(res.recvd) < total {
		rig.setDeadline(deadline)
		n, err := rig.dc.recv()
		if err != nil {
			if !isTimeout(err) {
				rerr = err
			}
			break
		}
		now := time.Now()
		for i := 0; i < n; i++ {
			if k, ok := rig.match.match(rig.dc.payload(i)); ok {
				if i := k - base; i >= 0 && i < total {
					res.lat[i] = int64(sch.latency(i, now))
				}
			}
		}
		res.recvd += int64(n)
	}
	wg.Wait()
	res.sent = int64(total)
	rig.next = base + total
	rig.sent += res.sent
	rig.recvd += res.recvd
	if sendErr != nil {
		return res, sendErr
	}
	return res, rerr
}

// latWindow is how many consecutive datagrams (by due time) share one
// latency window: half a second of the open loop.
const latWindow = socketOpenRate / 2

// openLatency returns the open loop's median latency as the median of
// per-window medians, so a host stall that spoils a few windows does
// not move it, and the p99 over every datagram that arrived (stalls
// included), both in microseconds. lat is indexed by sequence number
// and reordered in place; lost datagrams (-1) are left out.
func openLatency(lat []int64) (p50, p99 float64) {
	var windows []float64
	all := make([]int64, 0, len(lat))
	for start := 0; start < len(lat); start += latWindow {
		w := lat[start:min(start+latWindow, len(lat))]
		var got []int64
		for _, v := range w {
			if v >= 0 {
				got = append(got, v)
			}
		}
		if len(got) > 0 {
			windows = append(windows, float64(percentileNs(got, 0.5))/1e3)
			all = append(all, got...)
		}
	}
	return median(windows), float64(percentileNs(all, 0.99)) / 1e3
}

// socketMaxSeconds keeps a run inside the capabilities' lifetime
// (packet.MaxTSeconds, 63 s from set-up).
const socketMaxSeconds = 50

func runSocketSteady(cfg runConfig) (*outcome, error) {
	if cfg.seconds > socketMaxSeconds {
		return nil, fmt.Errorf("at most %d s: the seeded capabilities expire %d s after set-up", socketMaxSeconds, packet.MaxTSeconds)
	}
	rig, setupS, err := timeSetups(cfg.sc, func() (*socketRig, error) { return newSocketRig(cfg.seed) }, (*socketRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	o := newOutcome()
	o.metrics["setup_s"] = setupS

	// Closed loop, in windows of socketWindowLen: the whole run when
	// untraced; the first half when traced, where every other window
	// times the driver's syscalls, so traced and untraced rates come
	// from the same stretch of the run.
	closedDur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		closedDur /= 2
	}
	nWin := max(int(closedDur/socketWindowLen), 2)
	var plain, timed, rtts []float64 // wall datagrams/s and median round trips per window
	var plainCPU, timedCPU []float64 // CPU µs per returned datagram per window
	var plainCost procDelta
	var plainPkts int64
	var measured int64
	rx0, rxp0 := rig.router.RxBursts.Load(), rig.router.RxBurstPkts.Load()
	for w := 0; w < nWin; w++ {
		rig.dc.timing = cfg.trace && w%2 == 1
		rig.rtt = rig.rtt[:0]
		before := snapProc()
		cw := startCPU()
		start := time.Now()
		sent, recvd, err := rig.closedLoop(0, socketWindowLen)
		el := time.Since(start)
		cpu := cw.elapsed()
		if err != nil {
			return nil, err
		}
		measured += sent
		o.failed += sent - recvd
		rate := float64(recvd) / el.Seconds()
		if !rig.dc.timing {
			plainCost.add(before.to(snapProc()))
		}
		cost := cpu.Seconds() * 1e6 / float64(max(recvd, 1))
		cfg.sc.mark()
		if rig.dc.timing {
			timed = append(timed, rate)
			timedCPU = append(timedCPU, cost)
		} else {
			plain = append(plain, rate)
			plainCPU = append(plainCPU, cost)
			rtts = append(rtts, float64(percentileNs(rig.rtt, 0.5))/1e3)
			plainPkts += recvd
		}
	}
	rig.dc.timing = false
	rxBursts, rxPkts := rig.router.RxBursts.Load()-rx0, rig.router.RxBurstPkts.Load()-rxp0
	fmt.Printf("# closed loop: %d windows of %v, %d datagrams in flight\n", nWin, socketWindowLen, socketWindow)
	describe("closed-loop CPU us per datagram per untraced window", plainCPU)
	describe("closed-loop wall datagrams/s per untraced window", plain)
	describe("closed-loop wall median round trip (us) per untraced window", rtts)
	reportWall(o, median(plain), median(rtts))
	o.metrics["fwd_kpps"] = median(plain) / 1e3

	// Open loop, traced runs only: latency at a fixed rate well below
	// capacity, which a host stall moves too much to gate on.
	var open openResult
	if cfg.trace {
		open, err = rig.openLoop(closedDur)
		if err != nil {
			return nil, err
		}
		measured += open.sent
		o.failed += open.sent - open.recvd
		fmt.Printf("# open loop: %d datagrams at %d/s, %d returned\n", open.sent, socketOpenRate, open.recvd)
	}
	o.attempted = measured
	o.failed += rig.match.failures()

	// Reconcile the driver's counts with the router's own counters.
	st := rig.router.CoreStats()
	drops := rig.router.SchedDrops()
	fmt.Printf("# driver sent %d, router received %d, forwarded %d and dropped %d, driver received %d\n",
		rig.sent, rig.router.Received.Load(), rig.router.Forwarded.Load(), drops.Total(), rig.recvd)
	o.check(rig.match.failures() == 0, "returned datagrams failed checks: %s", rig.match.firstFailure)
	o.check(rig.router.Malformed.Load() == 0 && rig.router.Unroutable.Load() == 0,
		"router saw %d malformed and %d unroutable datagrams", rig.router.Malformed.Load(), rig.router.Unroutable.Load())
	o.check(st.Demoted == 0, "router demoted %d datagrams", st.Demoted)
	// A scheduler drop (an output queue overflowing while the port was
	// starved of CPU) is a lost datagram, counted as failed above; it
	// must still add up.
	o.check(int64(rig.router.Received.Load()) <= rig.sent && int64(rig.router.Forwarded.Load()) <= int64(rig.router.Received.Load()) &&
		rig.recvd <= int64(rig.router.Forwarded.Load()-drops.Total()),
		"counts do not reconcile: driver sent %d, router received %d, forwarded %d, scheduler dropped %d, driver received %d",
		rig.sent, rig.router.Received.Load(), rig.router.Forwarded.Load(), drops.Total(), rig.recvd)
	if rig.sent == int64(rig.router.Received.Load()) {
		o.check(st.RegularMiss == socketFlows, "router validated %d capabilities without an entry, want the %d seeds", st.RegularMiss, socketFlows)
		o.check(int64(st.Requests) == rig.nReq && int64(st.Renewals) == rig.nRen,
			"router counted %d requests and %d renewals, driver sent %d and %d", st.Requests, st.Renewals, rig.nReq, rig.nRen)
	}

	if !cfg.trace {
		o.metrics["cpu_us_per_op"] = median(plainCPU)
		return o, nil
	}

	p50, p99 := openLatency(open.lat)
	o.metrics["overlay.lat_p50_us"] = p50
	o.metrics["overlay.lat_p99_us"] = p99
	o.metrics["driver.gen_late_p99_us"] = float64(percentileNs(open.late, 0.99)) / 1e3
	if rxBursts > 0 {
		o.metrics["overlay.rx_burst_fill"] = float64(rxPkts) / float64(rxBursts)
	}
	o.metrics["overlay.tx_burst_fill"] = rig.router.TxBurstFill()
	o.metrics["overlay.queue_wait_p99_us"] = float64(rig.router.WaitSketch().Quantile(0.99)) / 1e3
	recv := rig.router.Received.Load()
	o.metrics["overlay.forwarded_per_received"] = float64(rig.router.Forwarded.Load()) / float64(recv)
	o.metrics["driver.sendmmsg_us_per_pkt"] = rig.dc.sendNs.Seconds() * 1e6 / float64(rig.dc.sendPkts)
	o.metrics["driver.recvmmsg_us_per_pkt"] = rig.dc.recvNs.Seconds() * 1e6 / float64(rig.dc.recvPkts)
	np := float64(plainPkts)
	o.metrics["proc.cpu_user_us_per_pkt"] = plainCost.user.Seconds() * 1e6 / np
	o.metrics["proc.cpu_sys_us_per_pkt"] = plainCost.sys.Seconds() * 1e6 / np
	o.metrics["proc.allocs_per_pkt"] = float64(plainCost.mallocs) / np
	o.metrics["proc.gc_cpu_frac"] = plainCost.gcFrac
	plainRate := median(plain)
	o.metrics["bench.trace_overhead"] = median(timedCPU)/median(plainCPU) - 1
	// Ledger: of the wall time per forwarded datagram, the driver's own
	// syscalls are attributed; the rest is the router (not spanned from
	// outside), the kernel's loopback path and waiting.
	perPkt := 1e6 / plainRate
	attributed := o.metrics["driver.sendmmsg_us_per_pkt"] + o.metrics["driver.recvmmsg_us_per_pkt"]
	o.metrics["bench.ledger_residual"] = (perPkt - attributed) / perPkt

	c := rig.router.Core().Cache()
	entries := rig.router.FlowCacheEntries()
	o.metrics["flowcache.occupancy"] = float64(entries) / float64(c.Max())
	o.metrics["flowcache.hit_ratio"] = float64(st.RegularHit) / float64(st.RegularHit+st.RegularMiss)
	o.metrics["core.demote_ratio"] = float64(st.Demoted) / float64(recv)
	if n := rig.ticks.Load(); n > 0 {
		o.metrics["metrics.tick_ns"] = float64(rig.tickNs.Load()) / float64(n)
	}

	wall := func(int) tvatime.Time { return tvatime.WallClock{}.Now() }
	now := tvatime.WallClock{}.Now()
	if err := probeCodec(o, rig.mix); err != nil {
		return nil, err
	}
	if err := probeCapability(o, rig.mix, now); err != nil {
		return nil, err
	}
	probeFlowcache(o, rig.mix, now)
	if err := probeCore(o, rig.mix, wall); err != nil {
		return nil, err
	}
	if err := probeObserve(o, rig.mix, wall); err != nil {
		return nil, err
	}
	if err := probeSched(o, rig.mix, wall); err != nil {
		return nil, err
	}
	if err := probeTraceRecord(o, rig.mix); err != nil {
		return nil, err
	}
	return o, nil
}
