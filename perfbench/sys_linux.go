//go:build linux

package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread in nanosleep(2). The kernel's
// high-resolution timers overshoot by about the 50µs timer slack,
// where time.Sleep rounds any sub-millisecond wait up to the
// millisecond resolution of the runtime's netpoll timeout.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; waitUntil loops
}

// hostTicks returns the machine's cumulative CPU ticks stolen by the
// hypervisor and spent in total, from the first line of /proc/stat.
func hostTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest ...];
	// guest time is already counted in user.
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:9] {
		v, err := strconv.ParseUint(string(x), 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
