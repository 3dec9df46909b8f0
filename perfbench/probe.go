package main

import (
	"fmt"
	"time"

	"tva/internal/core"
	"tva/internal/flowcache"
	"tva/internal/flowstats"
	"tva/internal/packet"
	"tva/internal/pathid"
	"tva/internal/sched"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// Layer probes: each times one layer's public calls on a workload's
// own packets or capabilities, away from the other layers, and reports
// nanoseconds per call as the median of probeRounds rounds.
const probeRounds = 5

func medianRounds(round func() (ops int, elapsed time.Duration)) float64 {
	vals := make([]float64, 0, probeRounds)
	for i := 0; i < probeRounds; i++ {
		ops, el := round()
		if ops > 0 {
			vals = append(vals, float64(el.Nanoseconds())/float64(ops))
		}
	}
	return median(vals)
}

// probeCapability times Authority.ValidateCap on the mix's valid
// capabilities and Authority.PreCap on their flows, at now.
func probeCapability(o *outcome, m *mix, now tvatime.Time) error {
	grants := m.grants
	if len(grants) > 8192 {
		grants = grants[:8192]
	}
	invalid := 0
	o.metrics["capability.validate_ns"] = medianRounds(func() (int, time.Duration) {
		start := time.Now()
		for _, g := range grants {
			if !m.auth.ValidateCap(g.src, g.dst, g.cap, g.nkb, g.tsec, now) {
				invalid++
			}
		}
		return len(grants), time.Since(start)
	})
	var sink uint64
	o.metrics["capability.precap_ns"] = medianRounds(func() (int, time.Duration) {
		start := time.Now()
		for _, g := range grants {
			sink ^= m.auth.PreCap(g.src, g.dst, now)
		}
		return len(grants), time.Since(start)
	})
	if invalid > 0 {
		return fmt.Errorf("capability probe: %d minted capabilities failed validation", invalid)
	}
	_ = sink
	return nil
}

// probeFlowcache times Cache.Create on the mix's flows with the cache
// a quarter their number, so most creates reclaim an expired entry,
// and Lookup+Charge on a cache holding every flow (the hit path).
func probeFlowcache(o *outcome, m *mix, now tvatime.Time) {
	grants := m.grants
	if len(grants) > 4096 {
		grants = grants[:4096]
	}
	const charge = 28 // a nonce-only packet
	o.metrics["flowcache.create_ns"] = medianRounds(func() (int, time.Duration) {
		c := flowcache.New(len(grants)/4 + 1)
		t := now
		start := time.Now()
		for i, g := range grants {
			// 10 ms of virtual time per create lets earlier entries'
			// ttl pass, so a full cache evicts rather than refuses.
			c.Create(flowcache.Key{Src: g.src, Dst: g.dst}, uint64(i), g.cap,
				int64(g.nkb)*1024, g.tsec, t.Add(time.Hour), charge, t)
			t = t.Add(10 * time.Millisecond)
		}
		return len(grants), time.Since(start)
	})
	c := flowcache.New(2 * len(grants))
	for i, g := range grants {
		c.Create(flowcache.Key{Src: g.src, Dst: g.dst}, uint64(i), g.cap,
			int64(g.nkb)*1024, g.tsec, now.Add(time.Hour), charge, now)
	}
	misses := 0
	o.metrics["flowcache.lookup_ns"] = medianRounds(func() (int, time.Duration) {
		start := time.Now()
		for pass := 0; pass < 8; pass++ {
			for _, g := range grants {
				e := c.Lookup(g.src, g.dst)
				if e == nil || !c.Charge(e, charge, now) {
					misses++
				}
			}
		}
		return 8 * len(grants), time.Since(start)
	})
	o.check(misses == 0, "flowcache probe: %d lookups of installed flows missed or failed to charge", misses)
}

// decodedBursts decodes the first n bursts of m into pooled packets
// and runs them through a fresh bare router (no flow accounting), as
// the layers after core see them. release returns every packet.
func decodedBursts(m *mix, n int, nowOf func(int) tvatime.Time) (bs []*packet.Batch, release func(), err error) {
	r, err := seededRouter(m, false, nowOf(0))
	if err != nil {
		return nil, nil, err
	}
	if n > len(m.bursts) {
		n = len(m.bursts)
	}
	release = func() {
		for _, b := range bs {
			b.ReleaseAll()
		}
	}
	for i := 0; i < n; i++ {
		b := packet.NewBatch(burstSize)
		for _, raw := range m.bursts[i].pkts {
			p := packet.AcquirePacket()
			if err := p.UnmarshalReuse(raw); err != nil {
				packet.Release(p)
				release()
				return nil, nil, fmt.Errorf("decode: %w", err)
			}
			b.Append(p)
		}
		r.ProcessBatch(b, m.bursts[i].iface, nowOf(i))
		bs = append(bs, b)
	}
	return bs, release, nil
}

// seededRouter is a fresh core router on the mix's authority with the
// mix's flows installed, optionally with flow accounting attached as
// in production.
func seededRouter(m *mix, flows bool, now tvatime.Time) (*core.Router, error) {
	r := core.NewRouter(core.RouterConfig{
		Suite:         m.suite,
		CacheEntries:  engineCacheEntries,
		TrustBoundary: true,
		Tagger:        pathid.NewSeeded(1),
		Authority:     m.auth,
	})
	if flows {
		r.Flows = flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth)
	}
	for _, raw := range m.seeds {
		p := packet.AcquirePacket()
		if err := p.UnmarshalReuse(raw); err != nil {
			packet.Release(p)
			return nil, err
		}
		class := r.Process(p, 0, now)
		packet.Release(p)
		if class != packet.ClassRegular {
			return nil, fmt.Errorf("seed packet not accepted: %v", class)
		}
	}
	return r, nil
}

// probeObserve times flowstats.Collector.Observe on processed packets.
func probeObserve(o *outcome, m *mix, nowOf func(int) tvatime.Time) error {
	bs, release, err := decodedBursts(m, 2048, nowOf)
	if err != nil {
		return err
	}
	defer release()
	o.metrics["flowstats.observe_ns"] = medianRounds(func() (int, time.Duration) {
		c := flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth)
		n := 0
		start := time.Now()
		for _, b := range bs {
			for _, p := range b.Pkts() {
				c.Observe(p)
				n++
			}
		}
		return n, time.Since(start)
	})
	return nil
}

// probeTraceRecord times trace.Recorder.Record with spans built from
// the mix's packets.
func probeTraceRecord(o *outcome, m *mix) error {
	spans := make([]trace.Span, 0, 4096)
	var p packet.Packet
	for _, bu := range m.bursts {
		for _, raw := range bu.pkts {
			if err := p.UnmarshalReuse(raw); err != nil {
				return err
			}
			spans = append(spans, trace.Span{ID: uint64(len(spans) + 1), Src: uint32(p.Src), Dst: uint32(p.Dst),
				Size: uint32(p.Size), Hop: trace.NoHop, Edge: trace.EdgeEnqueue})
			if len(spans) == cap(spans) {
				break
			}
		}
		if len(spans) == cap(spans) {
			break
		}
	}
	rec := trace.NewRecorder(1 << 14)
	o.metrics["trace.record_ns"] = medianRounds(func() (int, time.Duration) {
		start := time.Now()
		for pass := 0; pass < 16; pass++ {
			for i := range spans {
				rec.Record(spans[i])
			}
		}
		return 16 * len(spans), time.Since(start)
	})
	return nil
}

// probeCodec times UnmarshalReuse and Marshal on the mix's packets.
func probeCodec(o *outcome, m *mix) error {
	var raws [][]byte
	for _, bu := range m.bursts {
		raws = append(raws, bu.pkts...)
		if len(raws) >= 8192 {
			break
		}
	}
	var p packet.Packet
	bad := 0
	o.metrics["packet.decode_ns"] = medianRounds(func() (int, time.Duration) {
		start := time.Now()
		for _, raw := range raws {
			if p.UnmarshalReuse(raw) != nil {
				bad++
			}
		}
		return len(raws), time.Since(start)
	})
	decoded := make([]*packet.Packet, len(raws))
	for i, raw := range raws {
		decoded[i] = packet.AcquirePacket()
		if decoded[i].UnmarshalReuse(raw) != nil {
			bad++
		}
	}
	defer func() {
		for _, q := range decoded {
			packet.Release(q)
		}
	}()
	buf := make([]byte, 0, 2048)
	o.metrics["packet.encode_ns"] = medianRounds(func() (int, time.Duration) {
		start := time.Now()
		for _, q := range decoded {
			out, err := q.Marshal(buf[:0])
			if err != nil {
				bad++
				continue
			}
			buf = out[:0]
		}
		return len(decoded), time.Since(start)
	})
	if bad > 0 {
		return fmt.Errorf("codec probe: %d packets failed to decode or encode", bad)
	}
	return nil
}

// probeCore times core.Router.ProcessBatch alone (decode untimed) on
// the mix's bursts, with flow accounting attached as in production and
// without it; the difference is the observability tax.
func probeCore(o *outcome, m *mix, nowOf func(int) tvatime.Time) error {
	n := len(m.bursts)
	if n > 2048 {
		n = 2048
	}
	round := func(flows bool) (int, time.Duration, error) {
		r, err := seededRouter(m, flows, nowOf(0))
		if err != nil {
			return 0, 0, err
		}
		b := packet.NewBatch(burstSize)
		var el time.Duration
		pkts := 0
		for i := 0; i < n; i++ {
			for _, raw := range m.bursts[i].pkts {
				p := packet.AcquirePacket()
				if err := p.UnmarshalReuse(raw); err != nil {
					packet.Release(p)
					b.ReleaseAll()
					return 0, 0, err
				}
				b.Append(p)
			}
			now := nowOf(i)
			start := time.Now()
			r.ProcessBatch(b, m.bursts[i].iface, now)
			el += time.Since(start)
			pkts += b.Len()
			b.ReleaseAll()
		}
		return pkts, el, nil
	}
	var vals [2][]float64
	for i := 0; i < probeRounds; i++ {
		for k, flows := range []bool{true, false} {
			pkts, el, err := round(flows)
			if err != nil {
				return fmt.Errorf("core probe: %w", err)
			}
			vals[k] = append(vals[k], float64(el.Nanoseconds())/float64(pkts))
		}
	}
	o.metrics["core.process_ns"] = median(vals[0])
	o.metrics["core.process_bare_ns"] = median(vals[1])
	o.metrics["core.obs_tax_ns"] = o.metrics["core.process_ns"] - o.metrics["core.process_bare_ns"]
	return nil
}

// probeSched times sched.TVA EnqueueBatch and DequeueBatch, per
// packet, on processed bursts (the scheduler the overlay ports use).
func probeSched(o *outcome, m *mix, nowOf func(int) tvatime.Time) error {
	var enq, deq []float64
	out := make([]*packet.Packet, 2*burstSize)
	for i := 0; i < probeRounds; i++ {
		bs, release, err := decodedBursts(m, 1024, nowOf)
		if err != nil {
			return err
		}
		tva := sched.NewTVA(sched.TVAConfig{LinkBps: engineLinkBps, RequestFraction: 0.05})
		tva.Flows = flowstats.New(flowstats.DefaultTopK, flowstats.DefaultSketchWidth)
		var elE, elD time.Duration
		var nE, nD int
		for k, b := range bs {
			now := nowOf(k)
			nE += b.Len()
			start := time.Now()
			tva.EnqueueBatch(b, now, packet.Release)
			mid := time.Now()
			n, _ := tva.DequeueBatch(out, now)
			elD += time.Since(mid)
			elE += mid.Sub(start)
			nD += n
			for j := 0; j < n; j++ {
				packet.Release(out[j])
				out[j] = nil
			}
		}
		tva.Flush(packet.Release)
		release()
		enq = append(enq, float64(elE.Nanoseconds())/float64(nE))
		if nD > 0 {
			deq = append(deq, float64(elD.Nanoseconds())/float64(nD))
		}
	}
	o.metrics["sched.enqueue_ns"] = median(enq)
	o.metrics["sched.dequeue_ns"] = median(deq)
	return nil
}
