package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow returns the CPU time the process has consumed, across all its
// threads. Throughput and set-up are measured in CPU time, not wall
// time: on a virtual machine whose host steals CPU, wall time swings
// with other tenants' load, while CPU time excludes the stolen share.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// heapAllocs is a reading of the process's cumulative heap allocation.
type heapAllocs struct{ bytes, objects uint64 }

// memStats is heapNow's buffer, reused so a reading allocates nothing
// that the next reading would count.
var memStats runtime.MemStats

// heapNow returns the bytes and objects the process has allocated on the
// heap so far. Unlike time, these repeat from run to run: they are the
// program's work, whatever the host's load.
func heapNow() heapAllocs {
	runtime.ReadMemStats(&memStats)
	return heapAllocs{memStats.TotalAlloc, memStats.Mallocs}
}

// add accumulates the allocation between from and to.
func (h *heapAllocs) add(from, to heapAllocs) {
	h.bytes += to.bytes - from.bytes
	h.objects += to.objects - from.objects
}
