package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sharpenTimer lowers the calling thread's timer slack from the default
// 50µs to 1ns, so nanosleep wakes when asked. The caller must hold its
// thread (runtime.LockOSThread).
func sharpenTimer() {
	// Failure only leaves the default slack: the schedule is then up to
	// 50µs late, which the reported lag shows.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepUntil blocks the calling thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR just loops back for the remainder.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
