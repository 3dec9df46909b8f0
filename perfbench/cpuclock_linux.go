//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux CPU clocks (clock_gettime(2)): they advance only while the
// process or thread runs, and leave out time stolen by the hypervisor.
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time of every thread of the process so far.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

// threadCPU is the CPU time of the calling thread so far; the caller
// must be locked to its thread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }
