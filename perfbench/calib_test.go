package main

import (
	"math"
	"testing"
	"time"
)

// The factor is the nominal reading over the run's median reading, so
// one outlying reading does not move it.
func TestScalerFactorUsesMedianReading(t *testing.T) {
	nominal := float64(calibNominal)
	s := &scaler{readings: []float64{2 * nominal, 2 * nominal, 50 * nominal, 2 * nominal, 0.1 * nominal}}
	if got := s.factor(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("factor = %v, want 0.5 (host at half the nominal speed)", got)
	}
}

// Readings are CPU time on the calling thread: positive, and together
// no larger than the wall time they took.
func TestCalibratorReadsThreadCPU(t *testing.T) {
	c := newCalibrator()
	start := time.Now()
	passes := c.read()
	wall := time.Since(start)
	var sum time.Duration
	for _, p := range passes {
		if p <= 0 {
			t.Errorf("pass took %v of CPU", p)
		}
		sum += p
	}
	if sum > wall {
		t.Errorf("passes took %v of CPU in %v of wall time", sum, wall)
	}
}

// The process CPU clock only moves forward, and moves while this
// goroutine computes.
func TestProcessCPUAdvances(t *testing.T) {
	w := startCPU()
	x := uint64(1)
	for i := 0; i < 1<<22; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if el := w.elapsed(); el <= 0 {
		t.Errorf("process CPU advanced %v over a busy loop (x=%d)", el, x)
	}
}
