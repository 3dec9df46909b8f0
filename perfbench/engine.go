package main

import (
	"fmt"
	"math/rand"
	"time"

	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/flowstats"
	"tva/internal/packet"
	"tva/internal/sched"
	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

// engine-flood: the paper's router-CPU attack (Table 1's expensive
// rows, Fig. 12's lowest plateau) on the in-process data path, with no
// sockets. Half the packets are legitimate nonce-only traffic on
// seeded flows; the rest is a flood of forged capabilities from fresh
// senders (every one costs a MAC check), requests across three ingress
// interfaces (rate-limited by the scheduler), and valid-capability new
// flows from colluders — ten times more flows than the flow cache
// holds, so the cache creates and evicts continuously.
//
// Time is virtual: burst b of an epoch runs at engineT0 + b·engineStep,
// so cache expiry, eviction and the request rate limiter do the same
// thing at any host speed, and every epoch (a fresh router and
// scheduler fed the same bursts) must end with identical counters.
const (
	engineLegitFlows    = 1024
	engineColluderFlows = 40960
	engineRequestPool   = 4096
	engineCacheEntries  = 4096
	engineCycleBursts   = 8192
	engineEpochCycles   = 2
	engineStep          = 8 * time.Microsecond // virtual time per burst: 0.25 µs per packet
	engineRequestShare  = 0.15                 // share of bursts that are request bursts
	engineLinkBps       = 1_000_000_000
)

// Legitimate flows hold the longest authorization the header can
// express; at 0.25 µs per packet each is charged every ~512 µs and
// gains ~1.7 ms of ttl per packet, so its entry is never reclaimable.
// Colluders hold T = 1 s, so their entries expire ~50 µs after use and
// are what eviction reclaims.
var engineT0 = tvatime.FromSeconds(10)

type engineRig struct {
	mix   *mix
	batch *packet.Batch
	out   []*packet.Packet
	buf   []byte
	lat   *ring
}

func buildEngineMix(seed int64) *mix {
	rng := rand.New(rand.NewSource(seed))
	suite := capability.Crypto
	auth := capability.NewAuthority(suite, 0)
	legitDsts := addrs(packet.AddrFrom(20, 0, 0, 1), 16)
	colluderDsts := addrs(packet.AddrFrom(21, 0, 0, 1), 4)
	legit := mintFlows(rng, auth, suite, engineT0, engineLegitFlows,
		packet.AddrFrom(10, 0, 0, 1), legitDsts, packet.MaxNKB, packet.MaxTSeconds)
	colluders := mintFlows(rng, auth, suite, engineT0, engineColluderFlows,
		packet.AddrFrom(12, 0, 0, 1), colluderDsts, packet.MaxNKB, 1)
	requests := make([][]byte, engineRequestPool)
	for i := range requests {
		src := packet.AddrFrom(13, 0, 0, 0) + packet.Addr(rng.Intn(1<<20))
		requests[i] = requestPkt(src, legitDsts[rng.Intn(len(legitDsts))], 64)
	}

	m := &mix{suite: suite, auth: auth}
	legitPkts := make([][]byte, len(legit))
	for i, f := range legit {
		m.seeds = append(m.seeds, f.packet(packet.KindRegular, 64))
		legitPkts[i] = f.packet(packet.KindNonceOnly, 64)
	}
	colluderPkts := make([][]byte, len(colluders))
	for i, f := range colluders {
		m.grants = append(m.grants, f.grant)
		colluderPkts[i] = f.packet(packet.KindRegular, 64)
	}
	// Forged capabilities carry the current timestamp byte, so they
	// fail on the MAC comparison (the expensive check), not on age.
	ts := uint64(engineT0.Seconds()%256) << 56
	forgedSrc := packet.AddrFrom(11, 0, 0, 1)
	var nLegit, nColluder, nRequest int
	for b := 0; b < engineCycleBursts; b++ {
		bu := burst{pkts: make([][]byte, burstSize), kinds: make([]pktKind, burstSize)}
		if rng.Float64() < engineRequestShare {
			bu.iface = 1 + rng.Intn(3)
			for j := range bu.pkts {
				bu.pkts[j], bu.kinds[j] = requests[nRequest%len(requests)], kindRequest
				nRequest++
			}
		} else {
			// Within ingress 0: legit 50, forged 20, colluder 15 parts.
			for j := range bu.pkts {
				switch x := rng.Intn(85); {
				case x < 50:
					bu.pkts[j], bu.kinds[j] = legitPkts[nLegit%len(legit)], kindLegit
					nLegit++
				case x < 70:
					h := &packet.CapHdr{Kind: packet.KindRegular, Proto: packet.ProtoRaw,
						Nonce: rng.Uint64() & packet.NonceMask, NKB: packet.MaxNKB, TSec: packet.MaxTSeconds,
						Caps: []uint64{ts | rng.Uint64()>>8}}
					bu.pkts[j] = marshalPkt(&packet.Packet{Src: forgedSrc, Dst: legitDsts[rng.Intn(len(legitDsts))],
						TTL: 64, Proto: packet.ProtoRaw, Hdr: h})
					bu.kinds[j] = kindForged
					forgedSrc++
				default:
					bu.pkts[j], bu.kinds[j] = colluderPkts[nColluder%len(colluders)], kindColluder
					nColluder++
				}
			}
		}
		m.bursts = append(m.bursts, bu)
		m.pkts += len(bu.pkts)
	}
	return m
}

func newEngineRig(seed int64) (*engineRig, error) {
	rig := &engineRig{
		mix:   buildEngineMix(seed),
		batch: packet.NewBatch(burstSize),
		out:   make([]*packet.Packet, 2*burstSize),
		buf:   make([]byte, 0, 2048),
		lat:   newRing(1 << 18),
	}
	// Warm-up: 512 bursts, so the packet pool, the maps and the
	// heap reach their working size before anything is timed.
	eng, err := rig.newEngine(false)
	if err != nil {
		return nil, err
	}
	var chk engineChecks
	rig.run(eng, nil, &chk, 0, 512)
	return rig, nil
}

// engine is one epoch's state: a fresh capability router and link
// scheduler, wired the way the overlay wires them in production
// (flow accounting on both), sharing the mix's capability authority.
type engine struct {
	router *core.Router
	tva    *sched.TVA
}

func (rig *engineRig) newEngine(bare bool) (*engine, error) {
	r, err := seededRouter(rig.mix, !bare, engineT0)
	if err != nil {
		return nil, err
	}
	tva := sched.NewTVA(sched.TVAConfig{LinkBps: engineLinkBps, RequestFraction: 0.05})
	if !bare {
		tva.Flows = flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth)
	}
	return &engine{router: r, tva: tva}, nil
}

// engineChecks counts what the output checks look at.
type engineChecks struct {
	decoded, malformed            int64
	legitDemoted, forgedKept      int64
	requestMisclassed             int64
	accepted, dropped, encoded    int64
	flushed, encodeErrors         int64
	legit, forged, colluder, reqs int64
}

// Span names of the engine loop.
const (
	spBurst = iota
	spDecode
	spProcess
	spEnqueue
	spDequeue
	spEncode
)

var engineSpanNames = []string{"engine.burst", "packet.decode", "core.process", "sched.enqueue", "sched.dequeue", "packet.encode"}

// epochBursts is the length of an epoch in bursts.
const epochBursts = engineEpochCycles * engineCycleBursts

// run pushes bursts [from, from+n) of the epoch's sequence through
// eng: decode into pooled packets, ProcessBatch, EnqueueBatch,
// DequeueBatch, Marshal. It returns the packets decoded and the time
// taken; each burst's time goes to the latency ring.
func (rig *engineRig) run(eng *engine, tr *tracer, chk *engineChecks, from, n int) (int64, time.Duration) {
	m := rig.mix
	b, out := rig.batch, rig.out
	onDrop := func(p *packet.Packet) {
		chk.dropped++
		packet.Release(p)
	}
	var pkts int64
	start := time.Now()
	prev := start
	for i := from; i < from+n; i++ {
		bu := &m.bursts[i%len(m.bursts)]
		now := engineT0.Add(time.Duration(i) * engineStep)

		root := tr.begin(spBurst, -1)
		s := tr.begin(spDecode, root)
		for _, raw := range bu.pkts {
			p := packet.AcquirePacket()
			if err := p.UnmarshalReuse(raw); err != nil {
				chk.malformed++
				packet.Release(p)
				continue
			}
			b.Append(p)
		}
		tr.end(s)
		pkts += int64(b.Len())

		s = tr.begin(spProcess, root)
		eng.router.ProcessBatch(b, bu.iface, now)
		tr.end(s)

		if b.Len() == len(bu.kinds) {
			for j, p := range b.Pkts() {
				switch bu.kinds[j] {
				case kindLegit:
					chk.legit++
					if p.Class != packet.ClassRegular {
						chk.legitDemoted++
					}
				case kindForged:
					chk.forged++
					if p.Hdr == nil || !p.Hdr.Demoted {
						chk.forgedKept++
					}
				case kindColluder:
					chk.colluder++
				case kindRequest:
					chk.reqs++
					if p.Class != packet.ClassRequest {
						chk.requestMisclassed++
					}
				}
			}
		}

		s = tr.begin(spEnqueue, root)
		chk.accepted += int64(eng.tva.EnqueueBatch(b, now, onDrop))
		tr.end(s)

		s = tr.begin(spDequeue, root)
		n, _ := eng.tva.DequeueBatch(out, now)
		tr.end(s)

		s = tr.begin(spEncode, root)
		for k := 0; k < n; k++ {
			data, err := out[k].Marshal(rig.buf[:0])
			if err != nil {
				chk.encodeErrors++
			} else {
				rig.buf = data[:0]
				chk.encoded++
			}
			packet.Release(out[k])
			out[k] = nil
		}
		tr.end(s)
		tr.end(root)
		if !tr.room(6) {
			tr.fold()
		}
		t := time.Now()
		if tr == nil {
			rig.lat.record(int64(t.Sub(prev)))
		}
		prev = t
	}
	elapsed := time.Since(start)
	chk.decoded += pkts
	// Whatever the rate limiter still holds is released untimed.
	eng.tva.Flush(func(p *packet.Packet) { chk.flushed++; packet.Release(p) })
	return pkts, elapsed
}

// epochResult is everything a full epoch must reproduce exactly.
type epochResult struct {
	stats      core.RouterStats
	demotions  telemetry.DropCounters
	schedDrops telemetry.DropCounters
	creates    uint64
	evictions  uint64
	admitFails uint64
	hits       uint64
	misses     uint64
	cacheLen   int
	encoded    int64
	dropped    int64
}

func epochOf(eng *engine, chk engineChecks) epochResult {
	c := eng.router.Cache()
	return epochResult{
		stats:      eng.router.Stats,
		demotions:  eng.router.Demotions,
		schedDrops: eng.tva.Drops,
		creates:    c.Creates,
		evictions:  c.Evictions,
		admitFails: c.AdmitFailures,
		hits:       c.Hits,
		misses:     c.Misses,
		cacheLen:   c.Len(),
		encoded:    chk.encoded,
		dropped:    chk.dropped,
	}
}

// epochMode selects what an epoch of a traced run measures.
type epochMode int

const (
	modePlain epochMode = iota // untraced, as in the end-to-end run
	modeTraced
	modeTracedBare // traced, flow accounting detached (core.process_bare_ns)
)

func runEngineFlood(cfg runConfig) (*outcome, error) {
	rig, setupS, err := timeSetups(cfg.sc, func() (*engineRig, error) { return newEngineRig(cfg.seed) }, func(*engineRig) {})
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.metrics["setup_s"] = setupS

	modes := []epochMode{modePlain}
	var trI, trB *tracer
	if cfg.trace {
		modes = []epochMode{modePlain, modeTraced, modeTracedBare}
		trI = newTracer(1<<16, engineSpanNames...)
		trB = newTracer(1<<16, engineSpanNames...)
	}

	var (
		ref       *epochResult
		rates     = map[epochMode][]float64{} // wall packets/s per epoch
		costs     = map[epochMode][]float64{} // CPU µs per packet per epoch
		pkts      = map[epochMode]int64{}
		plainCost procDelta
		lastEng   *engine
		lastChk   engineChecks
		total     engineChecks
	)
	rig.lat.reset()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		mode := modes[i%len(modes)]
		if i >= len(modes) && !time.Now().Before(deadline) {
			break
		}
		eng, err := rig.newEngine(mode == modeTracedBare)
		if err != nil {
			return nil, err
		}
		var tr *tracer
		switch mode {
		case modeTraced:
			tr = trI
		case modeTracedBare:
			tr = trB
		}
		var chk engineChecks
		before := snapProc()
		w := startCPU()
		n, elapsed := rig.run(eng, tr, &chk, 0, epochBursts)
		tr.fold()
		cpu := w.elapsed()
		if mode == modePlain {
			plainCost.add(before.to(snapProc()))
		}
		costs[mode] = append(costs[mode], cpu.Seconds()*1e6/float64(n))
		cfg.sc.mark()
		rates[mode] = append(rates[mode], float64(n)/elapsed.Seconds())
		pkts[mode] += n

		// Every full epoch replays the same bursts on a fresh engine at
		// the same virtual times, so its counters must repeat exactly.
		// Bare epochs skip flow accounting, which changes no verdict.
		res := epochOf(eng, chk)
		if ref == nil {
			ref = &res
		} else {
			o.check(res == *ref, "epoch %d counters differ from epoch 0: %+v vs %+v", i, res, *ref)
		}
		c := eng.router.Cache()
		o.check(c.Len() <= c.Max(), "flow cache holds %d entries, bound %d", c.Len(), c.Max())
		total.add(chk)
		lastEng, lastChk = eng, chk
	}

	o.attempted = total.decoded
	o.failed = total.malformed + total.legitDemoted + total.forgedKept + total.requestMisclassed + total.encodeErrors
	o.check(total.malformed == 0, "%d generated packets failed to decode", total.malformed)
	o.check(total.legitDemoted == 0, "%d of %d legitimate packets demoted", total.legitDemoted, total.legit)
	o.check(total.forgedKept == 0, "%d of %d forged capabilities not demoted", total.forgedKept, total.forged)
	o.check(total.requestMisclassed == 0, "%d of %d requests not in the request class", total.requestMisclassed, total.reqs)
	o.check(total.encodeErrors == 0, "%d forwarded packets failed to encode", total.encodeErrors)
	o.check(total.decoded == total.accepted+total.dropped,
		"decoded %d != scheduled %d + dropped %d", total.decoded, total.accepted, total.dropped)
	o.check(total.accepted == total.encoded+total.flushed,
		"scheduled %d != encoded %d + left queued %d", total.accepted, total.encoded, total.flushed)
	o.check(total.legit > 0 && total.forged > 0 && total.colluder > 0 && total.reqs > 0,
		"mix lacks a packet kind: %+v", total)
	fmt.Printf("# engine epoch counters (repeat exactly per seed): %+v\n", *ref)

	plainRate := median(rates[modePlain])
	describe("engine CPU us per packet per untraced epoch", costs[modePlain])
	describe("engine wall packets/s per untraced epoch", rates[modePlain])
	lat := rig.lat.samples()
	reportWall(o, plainRate, float64(percentileNs(lat, 0.50))/1e3)
	o.metrics["wall_burst_p99_us"] = float64(percentileNs(lat, 0.99)) / 1e3
	o.metrics["engine_mpps"] = plainRate / 1e6
	fmt.Printf("# per epoch of %d packets: %d epochs; wall burst latency is per %d-packet burst over %d bursts\n",
		engineEpochCycles*rig.mix.pkts, len(rates[modePlain]), burstSize, len(lat))
	if !cfg.trace {
		o.metrics["cpu_us_per_op"] = median(costs[modePlain])
		return o, nil
	}

	perPkt := func(tr *tracer, name int, n int64) float64 { return float64(tr.selfNs(name)) / float64(n) }
	nI, nB := pkts[modeTraced], pkts[modeTracedBare]
	o.metrics["packet.decode_ns"] = perPkt(trI, spDecode, nI)
	o.metrics["core.process_ns"] = perPkt(trI, spProcess, nI)
	o.metrics["sched.enqueue_ns"] = perPkt(trI, spEnqueue, nI)
	o.metrics["sched.dequeue_ns"] = perPkt(trI, spDequeue, nI)
	o.metrics["packet.encode_ns"] = perPkt(trI, spEncode, nI)
	o.metrics["core.process_bare_ns"] = perPkt(trB, spProcess, nB)
	o.metrics["core.obs_tax_ns"] = o.metrics["core.process_ns"] - o.metrics["core.process_bare_ns"]
	layerSum := 0.0
	for _, sp := range []int{spDecode, spProcess, spEnqueue, spDequeue, spEncode} {
		layerSum += perPkt(trI, sp, nI)
	}
	perPktNs := 1e9 / plainRate
	o.metrics["bench.ledger_residual"] = (perPktNs - layerSum) / perPktNs
	o.metrics["bench.trace_overhead"] = median(costs[modeTraced])/median(costs[modePlain]) - 1
	o.metrics["engine.loop_self_ns"] = perPkt(trI, spBurst, nI)

	np := float64(pkts[modePlain])
	o.metrics["proc.cpu_user_us_per_pkt"] = plainCost.user.Seconds() * 1e6 / np
	o.metrics["proc.cpu_sys_us_per_pkt"] = plainCost.sys.Seconds() * 1e6 / np
	o.metrics["proc.gc_cpu_frac"] = plainCost.gcFrac
	// Allocations are counted in the steady state: a fresh engine fills
	// its flow cache and queues during its first epoch, so the count
	// covers one more cycle on an engine that has run a whole epoch.
	steady, err := rig.newEngine(false)
	if err != nil {
		return nil, err
	}
	var warm engineChecks
	rig.run(steady, nil, &warm, 0, epochBursts)
	before := snapProc()
	n, _ := rig.run(steady, nil, &warm, epochBursts, engineCycleBursts)
	o.metrics["proc.allocs_per_pkt"] = float64(before.to(snapProc()).mallocs) / float64(n)
	o.check(warm.legitDemoted == 0 && warm.forgedKept == 0, "steady-state pass: %d legitimate demoted, %d forged kept",
		warm.legitDemoted, warm.forgedKept)

	c := lastEng.router.Cache()
	o.metrics["flowcache.hit_ratio"] = float64(c.Hits) / float64(c.Hits+c.Misses)
	o.metrics["flowcache.occupancy"] = float64(c.Len()) / float64(c.Max())
	st := lastEng.router.Stats
	o.metrics["core.demote_ratio"] = float64(st.Demoted) / float64(lastChk.decoded)
	o.metrics["sched.drop_ratio"] = float64(lastChk.dropped) / float64(lastChk.decoded)

	if err := probeCapability(o, rig.mix, engineT0); err != nil {
		return nil, err
	}
	probeFlowcache(o, rig.mix, engineT0)
	if err := probeObserve(o, rig.mix, func(i int) tvatime.Time { return engineT0.Add(time.Duration(i) * engineStep) }); err != nil {
		return nil, err
	}
	if err := probeTraceRecord(o, rig.mix); err != nil {
		return nil, err
	}
	if err := trI.writeOut(spanDumpPath("engine-flood", cfg.seed)); err != nil {
		fmt.Printf("# %v\n", err)
	}
	return o, nil
}

func (c *engineChecks) add(o engineChecks) {
	c.decoded += o.decoded
	c.malformed += o.malformed
	c.legitDemoted += o.legitDemoted
	c.forgedKept += o.forgedKept
	c.requestMisclassed += o.requestMisclassed
	c.accepted += o.accepted
	c.dropped += o.dropped
	c.encoded += o.encoded
	c.flushed += o.flushed
	c.encodeErrors += o.encodeErrors
	c.legit += o.legit
	c.forged += o.forged
	c.colluder += o.colluder
	c.reqs += o.reqs
}
