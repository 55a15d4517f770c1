package main

import (
	"runtime"
	"syscall"
)

// pacer sleeps a generator goroutine to absolute instants without spinning.
// time.Sleep cannot pace 1 ms bursts: an idle Go scheduler parks in epoll
// with a whole-millisecond timeout, so a sub-millisecond sleep overshoots by
// up to a millisecond and the measured latency would be the runtime's timer
// slack. The pacer instead locks its goroutine to a thread, lowers that
// thread's kernel timer slack and blocks in nanosleep(2): the core is idle
// while it waits and the wake-up is accurate to a few tens of microseconds.
//
// prctl(2) and nanosleep(2) make the benchmark Linux-only.
type pacer struct{}

const prSetTimerslack = 29

func setTimerSlack(ns uintptr) {
	// Best effort: with the default slack (50 us) pacing is still far
	// tighter than time.Sleep.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, ns, 0)
}

// newPacer must be called on the goroutine that will sleep; release gives
// the thread back to the runtime as it was.
func newPacer() pacer {
	runtime.LockOSThread()
	setTimerSlack(1000)
	return pacer{}
}

func (pacer) release() {
	setTimerSlack(0) // 0 restores the thread's default slack
	runtime.UnlockOSThread()
}

// sleepUntil blocks until the monotonic clock reads at least t.
func (pacer) sleepUntil(t int64) {
	for {
		d := t - nanotime()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
	}
}
