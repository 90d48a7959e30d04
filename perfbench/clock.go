package main

import (
	"syscall"
	"time"
)

// now is the benchmark's only wall-clock read. Every timing it reports is
// the difference of two readings taken around a call into the program,
// and none of them flows back into the program under test.
func now() time.Time {
	//lint:allow wallclock -- the benchmark times the program from outside; readings reach only its own report
	return time.Now()
}

// cpuNow returns the CPU time the process has used so far, user and
// system, over all threads (the garbage collector's included). On a
// shared virtual machine the wall clock also counts the time the
// hypervisor gives the CPU to other guests; the process CPU clock does
// not, so the sim workloads time their work with it.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail with RUSAGE_SELF and a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
