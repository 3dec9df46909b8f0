package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tva/internal/exp"
	"tva/internal/netsim"
	"tva/internal/packet"
	"tva/internal/tcp"
	"tva/internal/tvatime"
)

// sim-sweep: the researcher's end-to-end cost. exp.RunMany runs the
// Fig. 8–11 grid — four schemes × four attacks × {10, 100} attackers
// — at a fixed simulated duration, on GOMAXPROCS workers. The netsim
// event loop, tcp, the siff/pushback baselines and the schedulers
// under real queue pressure do the work; no sockets, and the Fast
// suite makes MACs cheap. One operation is one whole grid sweep.
const simDuration = 10 * tvatime.Second

func simGrid(seed int64) []exp.Config {
	return exp.SweepSpec{
		Base:      exp.Config{Duration: simDuration, Seed: seed},
		Schemes:   []exp.Scheme{exp.SchemeInternet, exp.SchemeTVA, exp.SchemeSIFF, exp.SchemePushback},
		Attacks:   []exp.Attack{exp.AttackLegacyFlood, exp.AttackRequestFlood, exp.AttackAuthorizedFlood, exp.AttackImpreciseAuth},
		Attackers: []int{10, 100},
	}.Expand()
}

// digest folds every simulated statistic of a sweep into one hash: a
// change that only makes the simulator faster must leave it alone.
func digest(results []*exp.Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range results {
		fmt.Fprintf(h, "%v/%v/%d/%d|", r.Cfg.Scheme, r.Cfg.Attack, r.Cfg.NumAttackers, r.Cfg.Seed)
		for _, t := range r.Transfers {
			put(uint64(t.User))
			put(uint64(t.Start))
			put(uint64(t.End))
			if t.Completed {
				put(1)
			} else {
				put(0)
			}
		}
		put(r.BottleneckDrops)
		put(math.Float64bits(r.BottleneckUtilization))
		put(math.Float64bits(r.FairnessJain))
		put(math.Float64bits(r.MaxMinRatio))
		tel := &r.Telemetry
		fmt.Fprintf(h, "%v|%v|%v|", tel.SchedDrops, tel.Demotions, tel.LinkDrops)
		put(tel.HostEgressDrops)
		put(tel.GoodputBytes)
		put(tel.QueueDelay.Count())
		put(uint64(tel.QueueDelay.Sum()))
		put(tel.Delivery.Count())
		put(uint64(tel.Delivery.Sum()))
		fmt.Fprintf(h, "%v|", r.Flows)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// simPkts is the bottleneck work a sweep simulated: packets the
// forward bottleneck dequeued plus those it dropped at enqueue.
func simPkts(results []*exp.Result) (pkts, drops uint64) {
	for _, r := range results {
		pkts += r.Telemetry.QueueDelay.Count() + r.BottleneckDrops
		drops += r.BottleneckDrops
	}
	return pkts, drops
}

type simRig struct {
	cfgs []exp.Config
}

// newSimRig expands the grid and runs one short warm-up simulation, so
// the heap and the scheduler's first allocations are in place before
// the first timed sweep.
func newSimRig(seed int64) (*simRig, error) {
	rig := &simRig{cfgs: simGrid(seed)}
	warm := exp.Run(exp.Config{Scheme: exp.SchemeTVA, Attack: exp.AttackLegacyFlood,
		NumAttackers: 100, Duration: 2 * tvatime.Second, Seed: seed})
	if len(warm.Transfers) == 0 {
		return nil, fmt.Errorf("warm-up simulation decided no transfers")
	}
	return rig, nil
}

// tracedSweep runs the grid on its own worker pool around exp.Run —
// the loop RunMany runs — timing each run, and returns the results in
// grid order, the per-run host seconds and the sweep's wall time.
func tracedSweep(cfgs []exp.Config, workers int) ([]*exp.Result, []float64, time.Duration) {
	results := make([]*exp.Result, len(cfgs))
	runS := make([]float64, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				t0 := time.Now()
				results[i] = exp.Run(cfgs[i])
				runS[i] = time.Since(t0).Seconds()
			}
		}()
	}
	wg.Wait()
	return results, runS, time.Since(start)
}

func runSimSweep(cfg runConfig) (*outcome, error) {
	rig, setupS, err := timeSetups(cfg.sc, func() (*simRig, error) { return newSimRig(cfg.seed) }, func(*simRig) {})
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.metrics["setup_s"] = setupS
	workers := runtime.GOMAXPROCS(0)

	var (
		ref              string
		plainWalls       []float64 // wall seconds per untraced sweep
		plainCPU         []float64 // CPU µs per untraced sweep
		tracedCPU        []float64
		runTimes         []float64
		plainCost        procDelta
		plainRuns        int
		pkts, drops      uint64
		sweeps           int
		busy, tracedWall float64
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		traced := cfg.trace && i%2 == 1
		var results []*exp.Result
		if traced {
			cw := startCPU()
			res, runS, wall := tracedSweep(rig.cfgs, workers)
			tracedCPU = append(tracedCPU, cw.elapsed().Seconds()*1e6)
			cfg.sc.mark()
			results = res
			runTimes = append(runTimes, runS...)
			for _, s := range runS {
				busy += s
			}
			tracedWall += wall.Seconds()
		} else {
			before := snapProc()
			cw := startCPU()
			start := time.Now()
			results = exp.RunMany(rig.cfgs, workers)
			plainWalls = append(plainWalls, time.Since(start).Seconds())
			cpu := cw.elapsed()
			plainCost.add(before.to(snapProc()))
			plainCPU = append(plainCPU, cpu.Seconds()*1e6)
			cfg.sc.mark()
			plainRuns += len(rig.cfgs)
			p, d := simPkts(results)
			pkts += p
			drops += d
		}
		sweeps++
		d := digest(results)
		if ref == "" {
			ref = d
		} else {
			o.check(d == ref, "sweep %d results digest %s differs from sweep 0 (%s)", i, d, ref)
		}
		for _, r := range results {
			o.check(len(r.Transfers) > 0, "%v/%v/%d decided no transfers", r.Cfg.Scheme, r.Cfg.Attack, r.Cfg.NumAttackers)
			o.check(r.Telemetry.SchedDrops.Total() == r.BottleneckDrops,
				"%v/%v/%d: attributed drops %d != bottleneck drops %d", r.Cfg.Scheme, r.Cfg.Attack, r.Cfg.NumAttackers,
				r.Telemetry.SchedDrops.Total(), r.BottleneckDrops)
		}
	}
	o.attempted = int64(sweeps * len(rig.cfgs))
	// The worker count must never change a result.
	serial := digest(exp.RunMany(rig.cfgs, 1))
	o.check(serial == ref, "workers=1 digest %s differs from workers=%d digest %s", serial, workers, ref)
	if len(o.failures) > 0 {
		o.failed = int64(len(o.failures))
	}
	fmt.Printf("# sim-sweep: %d configurations × %v simulated, %d workers, %d sweeps, results digest %s\n",
		len(rig.cfgs), simDuration, workers, sweeps, ref)

	wall := median(plainWalls)
	describe("CPU seconds per RunMany sweep", scaled(plainCPU, 1e-6))
	describe("wall seconds per RunMany sweep", plainWalls)
	reportWall(o, 1/wall, wall*1e6)
	o.metrics["sweep_wall_s"] = wall
	if !cfg.trace {
		o.metrics["cpu_us_per_op"] = median(plainCPU)
		return o, nil
	}

	o.metrics["exp.run_s_p50"] = median(runTimes)
	o.metrics["exp.run_s_max"] = sortedCopy(runTimes)[len(runTimes)-1]
	o.metrics["exp.worker_busy_frac"] = busy / (float64(workers) * tracedWall)
	o.metrics["exp.allocs_per_run"] = float64(plainCost.mallocs) / float64(plainRuns)
	hostS := wall * float64(len(plainWalls))
	o.metrics["netsim.sim_pkts_per_s"] = float64(pkts) / hostS
	o.metrics["sched.drop_ratio"] = float64(drops) / float64(pkts)
	o.metrics["proc.cpu_user_us_per_pkt"] = plainCost.user.Seconds() * 1e6 / float64(pkts)
	o.metrics["proc.cpu_sys_us_per_pkt"] = plainCost.sys.Seconds() * 1e6 / float64(pkts)
	o.metrics["proc.allocs_per_pkt"] = float64(plainCost.mallocs) / float64(pkts)
	o.metrics["proc.gc_cpu_frac"] = plainCost.gcFrac
	o.metrics["bench.trace_overhead"] = median(tracedCPU)/median(plainCPU) - 1
	// Ledger: a sweep's worker-seconds are either inside exp.Run or
	// idle (the tail, when the slowest run leaves a worker waiting).
	o.metrics["bench.ledger_residual"] = 1 - o.metrics["exp.worker_busy_frac"]

	o.metrics["netsim.event_ns"] = probeNetsimEvents(cfg.seed)
	segNs, err := probeTCP(cfg.seed)
	if err != nil {
		return nil, err
	}
	o.metrics["tcp.segment_ns"] = segNs
	return o, nil
}

// probeNetsimEvents times scheduling and running no-op events through
// Sim.At and Sim.Run, at random times so the heap does real work.
func probeNetsimEvents(seed int64) float64 {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(seed))
	at := make([]tvatime.Time, n)
	for i := range at {
		at[i] = tvatime.Time(rng.Int63n(int64(tvatime.Second)))
	}
	fired := 0
	noop := func() { fired++ }
	return medianRounds(func() (int, time.Duration) {
		sim := netsim.New(seed)
		start := time.Now()
		for _, t := range at {
			sim.At(t, noop)
		}
		sim.Run(tvatime.Time(tvatime.Second))
		return n, time.Since(start)
	})
}

// probeTCP times a bulk transfer between two tcp.Stacks joined by a
// zero-delay in-memory link on a netsim clock, per segment sent.
func probeTCP(seed int64) (float64, error) {
	const bytes = 8 << 20
	var failed error
	ns := medianRounds(func() (int, time.Duration) {
		sim := netsim.New(seed)
		rng := rand.New(rand.NewSource(seed))
		var a, b *tcp.Stack
		aAddr, bAddr := packet.AddrFrom(10, 9, 0, 1), packet.AddrFrom(10, 9, 0, 2)
		a = tcp.NewStack(aAddr, sim, sim.After, func(_ packet.Addr, s *tcp.Segment) {
			sim.After(0, func() { b.Receive(aAddr, s) })
		}, rng)
		b = tcp.NewStack(bAddr, sim, sim.After, func(_ packet.Addr, s *tcp.Segment) {
			sim.After(0, func() { a.Receive(bAddr, s) })
		}, rng)
		b.Listen(80, nil)
		start := time.Now()
		c := a.Dial(bAddr, 80, bytes, tcp.Config{})
		sim.Run(tvatime.Time(60 * tvatime.Second))
		el := time.Since(start)
		if !c.Succeeded() {
			failed = fmt.Errorf("tcp probe: %d-byte transfer did not complete", bytes)
		}
		return int(a.SegsSent + b.SegsSent), el
	})
	return ns, failed
}

// scaled returns xs multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
