package main

import (
	"crypto/sha256"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// The benchmark is meant for a few vCPUs of a shared cloud machine. On
// a 2-vCPU Xeon VM, wall-clock timings spread by 40–64% (IQR/median)
// between runs of the same code: the vCPU is descheduled while the
// host runs someone else (steal), and while it runs, busy neighbours
// on the same core or cache slow it down — there the speed swung 2.4×
// within minutes with no steal at all, so CPU time alone moved as much
// as wall time. The end-to-end metrics therefore count CPU time — the
// kernel leaves stolen time and time spent waiting for a CPU out of
// the CPU clocks — and scale it by reference readings taken between
// the timed windows.
//
// A calibrator is that reference: fixed work of the kinds the measured
// layers spend their time on — hashing, scattered writes to a table
// the size of a cache, Go map updates and system calls — that calls
// none of the repository's code, so no change to the program can move
// it, timed on its own thread's CPU clock. (Through that 2.4× swing
// this mix tracked all three workloads to within a few percent; a
// pointer chase through memory tracked them worse and was left out.)
// A run's CPU times are multiplied by calibNominal over the median of
// the readings taken between its windows: the reported figure is what
// the work would have cost on a host where the reference work takes
// calibNominal. The unscaled wall-clock figures are printed in every
// run and reported as per-layer metrics by traced runs.
type calibrator struct {
	text []byte
	tab  []uint64
	m    map[uint64]uint64
	sink uint64
}

const (
	calibHashes   = 32 // SHA-256 digests of the text per unit
	calibTextLen  = 16 << 10
	calibTabLen   = 1 << 17 // 1 MiB of uint64
	calibUpdates  = 1 << 16 // table writes per unit
	calibMapKeys  = 1 << 16
	calibMapOps   = 1 << 14 // map updates per unit
	calibSyscalls = 2000    // getppid calls per unit
	calibUnits    = 5       // units per pass
	calibPasses   = 4       // timed passes per mark

	// calibNominal is roughly a pass on a quiet 2-vCPU Xeon VM, so
	// bench.host_speed reads about 1 there. It sets only the scale of
	// the reported times; changing it would break comparisons with
	// earlier results.
	calibNominal = 4 * time.Millisecond
)

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{
		text: make([]byte, calibTextLen),
		tab:  make([]uint64, calibTabLen),
		m:    make(map[uint64]uint64, calibMapKeys),
	}
	rng.Read(c.text)
	c.read() // page faults, map growth and cold caches behind us
	return c
}

// unit is one piece of the reference work. Once the map holds every
// key it does not allocate, so the collector never charges it assist
// work.
func (c *calibrator) unit() {
	x := c.sink
	for i := 0; i < calibHashes; i++ {
		sum := sha256.Sum256(c.text)
		x += uint64(sum[0]) | uint64(sum[1])<<8
	}
	for i := uint64(0); i < calibUpdates; i++ {
		c.tab[((x+i)*0x9e3779b97f4a7c15>>40)%calibTabLen] += i
	}
	for i := uint64(0); i < calibMapOps; i++ {
		c.m[((x+i)*0x9e3779b97f4a7c15>>32)%calibMapKeys] += i
	}
	for i := 0; i < calibSyscalls; i++ {
		x += uint64(os.Getppid())
	}
	c.sink = x
}

// read returns the CPU times of calibPasses passes of calibUnits units
// each on this thread. The program's leftovers must not reach them, or
// a change to the program would move its own yardstick: a collection
// still marking the program's heap is finished first, and an untimed
// pass refills the caches the program evicted.
func (c *calibrator) read() [calibPasses]time.Duration {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var passes [calibPasses]time.Duration
	for pass := -1; pass < calibPasses; pass++ {
		start := threadCPU()
		for i := 0; i < calibUnits; i++ {
			c.unit()
		}
		if pass >= 0 {
			passes[pass] = threadCPU() - start
		}
	}
	return passes
}

// scaler collects reference readings through a run, after each timed
// window, and scales the run's CPU times by their median: the median
// over the whole run is steadier than pairing each window with its
// neighbouring readings, which carries a single reading's noise into
// the window's figure.
type scaler struct {
	cal      *calibrator
	readings []float64 // ns, one per pass
}

func newScaler() *scaler { return &scaler{cal: newCalibrator()} }

// mark takes readings; call it right after each timed window.
func (s *scaler) mark() {
	for _, p := range s.cal.read() {
		s.readings = append(s.readings, float64(p))
	}
}

// factor turns this run's CPU times into CPU times on the nominal host:
// the nominal reading over the run's median reading.
func (s *scaler) factor() float64 { return float64(calibNominal) / median(s.readings) }

// cpuWindow times one window on the process's CPU clock.
type cpuWindow struct{ start time.Duration }

func startCPU() cpuWindow { return cpuWindow{start: processCPU()} }

// elapsed is the process CPU time since the window started.
func (w cpuWindow) elapsed() time.Duration { return processCPU() - w.start }
