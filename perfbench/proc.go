package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is a point-in-time reading of the process's own cost
// counters; the difference of two snapshots is the cost of whatever
// ran between them (the whole process: the driver and the measured
// code share it).
type procSnap struct {
	user, sys   time.Duration
	mallocs     uint64
	gcCPU, cpu  float64 // runtime/metrics cpu-seconds: GC total, all classes
	haveRuntime bool
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// snapProc reads the counters. ReadMemStats stops the world briefly,
// so snapshots belong outside timed loops.
func snapProc() procSnap {
	var s procSnap
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.user = time.Duration(ru.Utime.Nano())
		s.sys = time.Duration(ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	metrics.Read(cpuMetrics)
	if cpuMetrics[0].Value.Kind() == metrics.KindFloat64 && cpuMetrics[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuMetrics[0].Value.Float64()
		s.cpu = cpuMetrics[1].Value.Float64()
		s.haveRuntime = true
	}
	return s
}

// procDelta is the cost between two snapshots.
type procDelta struct {
	user, sys time.Duration
	mallocs   uint64
	gcFrac    float64 // GC share of the runtime's accounted CPU time
}

func (a procSnap) to(b procSnap) procDelta {
	d := procDelta{user: b.user - a.user, sys: b.sys - a.sys, mallocs: b.mallocs - a.mallocs}
	if a.haveRuntime && b.haveRuntime && b.cpu > a.cpu {
		d.gcFrac = (b.gcCPU - a.gcCPU) / (b.cpu - a.cpu)
	}
	return d
}

// add accumulates another delta (gcFrac is kept as the larger share,
// the conservative reading when phases are merged).
func (d *procDelta) add(o procDelta) {
	d.user += o.user
	d.sys += o.sys
	d.mallocs += o.mallocs
	if o.gcFrac > d.gcFrac {
		d.gcFrac = o.gcFrac
	}
}

// rssPeakMB returns the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() float64 {
	kb := procStatusKB("VmHWM:")
	return float64(kb) / 1024
}

func procStatusKB(field string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, field))
		if len(fields) == 0 {
			return 0
		}
		v, _ := strconv.ParseInt(fields[0], 10, 64)
		return v
	}
	return 0
}

// fingerprint describes the machine and toolchain a result was
// measured on; every report carries it.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Network    string `json:"network"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Network:    "loopback UDP on one host; no real link, NIC or wire delay is measured",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					fp.CPUModel = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(data))
	}
	return fp
}
