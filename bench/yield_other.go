//go:build !linux

package main

import "runtime"

// yieldCPU is the portable fallback; see yield_linux.go for why Linux
// gets sched_yield instead.
func yieldCPU() { runtime.Gosched() }
