// Command perfbench is the repository's benchmark. One workload per
// data plane, each driven through that plane's public entry points
// with its outputs checked:
//
//	socket-steady  the batched overlay.Router forwarding over loopback UDP
//	engine-flood   packet → core.Router → sched.TVA → packet, in process
//	sim-sweep      exp.RunMany over the Fig. 8–11 grid
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload engine-flood --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics; with
// --trace 1 it records spans around each layer call and reports the
// per-layer metrics, the ledger residual and the tracing overhead
// instead. Human-readable lines (machine fingerprint, every metric
// under the name the ledger uses, check results) go to standard
// output first; the last line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A failed output check makes correct false and the exit status 1.
// ledger.json beside this file maps every per-layer metric to the
// end-to-end metric and workload it should move. The benchmark's own
// tests (statistics, the open-loop schedule, the metric tables) run
// with "go test ./..." inside this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with tracing off.
// Each workload defines its operation (see ledger.json): a forwarded
// datagram, an engine packet, a grid sweep. Times are process CPU time
// scaled to the nominal host (calib.go), because wall time on the
// shared host spreads wider between runs than any bound allows.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"cpu_us_per_op", "us"},
}

// perLayer are the metrics every traced run reports. A workload that
// bypasses a layer reports 0 for it (ledger.json names the bypasses).
var perLayer = []metricDef{
	{"overlay.rx_burst_fill", "pkts/burst"},
	{"overlay.tx_burst_fill", "pkts/burst"},
	{"overlay.queue_wait_p99_us", "us"},
	{"overlay.forwarded_per_received", "ratio"},
	{"overlay.lat_p50_us", "us"},
	{"overlay.lat_p99_us", "us"},
	{"driver.gen_late_p99_us", "us"},
	{"driver.sendmmsg_us_per_pkt", "us"},
	{"driver.recvmmsg_us_per_pkt", "us"},
	{"proc.cpu_user_us_per_pkt", "us"},
	{"proc.cpu_sys_us_per_pkt", "us"},
	{"proc.allocs_per_pkt", "allocs/pkt"},
	{"proc.gc_cpu_frac", "ratio"},
	{"packet.decode_ns", "ns"},
	{"packet.encode_ns", "ns"},
	{"capability.validate_ns", "ns"},
	{"capability.precap_ns", "ns"},
	{"flowcache.lookup_ns", "ns"},
	{"flowcache.create_ns", "ns"},
	{"flowcache.hit_ratio", "ratio"},
	{"flowcache.occupancy", "ratio"},
	{"core.process_ns", "ns"},
	{"core.process_bare_ns", "ns"},
	{"core.obs_tax_ns", "ns"},
	{"core.demote_ratio", "ratio"},
	{"flowstats.observe_ns", "ns"},
	{"sched.enqueue_ns", "ns"},
	{"sched.dequeue_ns", "ns"},
	{"sched.drop_ratio", "ratio"},
	{"metrics.tick_ns", "ns"},
	{"trace.record_ns", "ns"},
	{"exp.run_s_p50", "s"},
	{"exp.run_s_max", "s"},
	{"exp.worker_busy_frac", "ratio"},
	{"exp.allocs_per_run", "allocs/run"},
	{"netsim.sim_pkts_per_s", "1/s"},
	{"netsim.event_ns", "ns"},
	{"tcp.segment_ns", "ns"},
	{"bench.ledger_residual", "ratio"},
	{"bench.trace_overhead", "ratio"},
	{"bench.wall_ops_per_s", "1/s"},
	{"bench.wall_op_p50_us", "us"},
	{"bench.host_speed", "ratio"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	sc      *scaler // the reference readings every timed window is scaled by
}

// outcome is a workload's result: operation counts, the metrics it
// measured, and every output check that failed.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	failures          []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// setupRepeats is how many times each workload builds its state; the
// reported setup_s is the median, which keeps one slow build (a page
// fault storm, a GC) from moving the number.
const setupRepeats = 11

// timeSetups runs build setupRepeats times, keeping the last result
// and tearing the others down, and returns the median build cost in
// process CPU seconds (the caller scales it to the nominal host).
func timeSetups[T any](sc *scaler, build func() (T, error), teardown func(T)) (T, float64, error) {
	var zero T
	costs := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		w := startCPU()
		v, err := build()
		if err != nil {
			return zero, 0, err
		}
		costs = append(costs, w.elapsed().Seconds())
		sc.mark()
		if i < setupRepeats-1 {
			teardown(v)
			// Collect the discarded build now, so the garbage of earlier
			// builds does not set the run's peak memory.
			runtime.GC()
			continue
		}
		describe("set-up CPU seconds per build", costs)
		return v, median(costs), nil
	}
	return zero, 0, fmt.Errorf("no setup ran")
}

// reportWall records the unscaled wall-clock figures of a run's
// untraced windows: printed by every run, reported as per-layer
// metrics by traced ones.
func reportWall(o *outcome, opsPerS, opP50us float64) {
	o.metrics["bench.wall_ops_per_s"] = opsPerS
	o.metrics["bench.wall_op_p50_us"] = opP50us
}

type workloadFunc func(runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"socket-steady": runSocketSteady,
	"engine-flood":  runEngineFlood,
	"sim-sweep":     runSimSweep,
}

func main() {
	name := flag.String("workload", "", "socket-steady, engine-flood or sim-sweep")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds (set-up excluded)")
	traceFlag := flag.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || *seconds > 60 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be in (0, 60] and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, sc: newScaler()}

	fp := machineFingerprint()
	fpJSON, _ := json.Marshal(fp) // strings and ints only: cannot fail
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceFlag)
	fmt.Printf("# fingerprint %s\n", fpJSON)

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !cfg.trace {
		out.metrics["rss_peak_mb"] = rssPeakMB()
	}
	// Host speed: the reference work's nominal time over its median
	// reading in this run (1 on the quiet host the benchmark was
	// written on, below 1 when neighbours slowed this one).
	describe("reference readings (ns)", cfg.sc.readings)
	speed := cfg.sc.factor()
	out.metrics["bench.host_speed"] = speed
	if !cfg.trace {
		// Every time-based end-to-end metric is CPU time, scaled here.
		fmt.Printf("# unscaled: setup_s=%.6g cpu_us_per_op=%.6g; host speed %.4f\n",
			out.metrics["setup_s"], out.metrics["cpu_us_per_op"], speed)
		out.metrics["setup_s"] *= speed
		out.metrics["cpu_us_per_op"] *= speed
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metricsOut := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, d.name)
			os.Exit(1)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.check(false, "metric %s is not a finite number", d.name)
			v = 0
		}
		metricsOut[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	printReport(out, defs)

	for _, f := range out.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	correct := len(out.failures) == 0
	if !correct {
		out.failed++
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, out.attempted, out.failed, metricsOut})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// printReport prints every reported metric with its unit, then any
// other value the workload measured: metrics of the other table (the
// unscaled wall-clock figures, the host speed) and the per-workload
// names the ledger maps the generic end-to-end metrics to, whose unit
// is the suffix of their name.
func printReport(out *outcome, defs []metricDef) {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	reported := map[string]bool{}
	for _, d := range defs {
		fmt.Printf("%-34s %16.6g %s\n", d.name, out.metrics[d.name], d.unit)
		reported[d.name] = true
	}
	var extra []string
	for k := range out.metrics {
		if !reported[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		unit, ok := units[k]
		if !ok {
			unit = k[strings.LastIndexByte(k, '_')+1:]
		}
		fmt.Printf("%-34s %16.6g %s\n", k, out.metrics[k], unit)
	}
}

// spanDumpPath is where a traced run writes its retained spans,
// relative to the directory the benchmark runs from.
func spanDumpPath(workload string, seed int64) string {
	return fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", workload, seed)
}
