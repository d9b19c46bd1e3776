//go:build !linux

package main

import "time"

func preciseSleep(d time.Duration) { time.Sleep(d) }

// hostTicks is unavailable off Linux; every cycle then counts as clean.
func hostTicks() (steal, total uint64, ok bool) { return 0, 0, false }
