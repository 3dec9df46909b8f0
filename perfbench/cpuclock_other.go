//go:build !linux

package main

import "time"

var clockStart = time.Now()

// Without Linux CPU clocks both readings fall back to wall time, which
// on a shared host carries its neighbours' load.
func processCPU() time.Duration { return time.Since(clockStart) }
func threadCPU() time.Duration  { return time.Since(clockStart) }
