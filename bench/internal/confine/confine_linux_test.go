//go:build linux

package confine

import (
	"math/bits"
	"runtime"
	"syscall"
	"testing"
)

// allowed counts the CPUs the calling thread may run on; -1 if unreadable.
func allowed() int {
	var set cpuSet
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &set); err != nil {
		return -1
	}
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestOneCPUConfinesAndRestores(t *testing.T) {
	procs, before := runtime.GOMAXPROCS(0), allowed()
	restore, err := OneCPU()
	if err != nil {
		restore()
		t.Skipf("this host refuses thread affinity: %v", err)
	}
	if got := runtime.GOMAXPROCS(0); got != 1 {
		t.Errorf("GOMAXPROCS = %d while confined, want 1", got)
	}
	// A goroutine on a thread of its own sees the same single CPU.
	done := make(chan int)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		done <- allowed()
	}()
	if got := <-done; got != 1 {
		t.Errorf("%d CPUs allowed while confined, want 1", got)
	}
	restore()
	if got := runtime.GOMAXPROCS(0); got != procs {
		t.Errorf("GOMAXPROCS = %d after restore, want %d", got, procs)
	}
	if got := allowed(); got != before {
		t.Errorf("%d CPUs allowed after restore, want %d", got, before)
	}
}
