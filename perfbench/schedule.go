package main

import (
	"time"
)

// schedule is an open-loop send schedule: datagram k is due at
// start + k·period, whatever happened to the ones before it. Latency
// is timed from the due time, not from the moment the generator got
// round to sending, so a generator or router stall is charged to every
// datagram it delayed (no coordinated omission).
type schedule struct {
	start  time.Time
	period time.Duration
}

func newSchedule(start time.Time, ratePerSec int) schedule {
	return schedule{start: start, period: time.Second / time.Duration(ratePerSec)}
}

// due returns when datagram k should leave.
func (s schedule) due(k int) time.Time {
	return s.start.Add(time.Duration(k) * s.period)
}

// dueBy returns how many datagrams are due at or before t: the index
// of the first one not yet due.
func (s schedule) dueBy(t time.Time) int {
	if t.Before(s.start) {
		return 0
	}
	return int(t.Sub(s.start)/s.period) + 1
}

// latency is how long after its due time datagram k arrived at t.
func (s schedule) latency(k int, t time.Time) time.Duration {
	return t.Sub(s.due(k))
}

// sleepUntil blocks until t on the runtime's timers. They are precise
// while other goroutines keep a processor busy and round a wait up to
// the millisecond when the process is idle; the lateness that costs is
// measured (driver.gen_late_p99_us) and charged to latency, which is
// timed from the due time. A thread-blocking nanosleep paced more
// tightly but made the runtime hand the sleeping thread's processor
// to another thread on every sleep, and that churn starved the
// router's receive goroutine long enough to overflow its socket
// buffer.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
