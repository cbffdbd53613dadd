package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// cpuNow reads the calling thread's CPU clock. runLeg locks its
// goroutine to one OS thread, so a difference of two readings is the
// CPU time the serving thread spent between them. Unlike the wall
// clock, it does not advance while a virtual CPU is stolen by the
// hypervisor, which on a shared host moved wall-clock medians by a
// quarter from one run to the next.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
