package main

import "syscall"

// yieldCPU gives the processor to any other runnable thread. The
// open-loop generator spins on the clock; without the yield the
// kernel's scheduler makes a thread that wakes on the spinner's
// processor (the one returning from epoll with the server's
// connections) wait out the spinner's 3 ms slice, which shows up as a
// millisecond p99 that is the generator's doing. runtime.Gosched is no
// substitute: an always-runnable goroutine keeps the run queues
// non-empty, and the scheduler then stops polling the network.
func yieldCPU() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
