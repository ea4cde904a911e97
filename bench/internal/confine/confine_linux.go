//go:build linux

// Package confine restricts the benchmark's own process to one CPU for the
// length of a workload.
//
// A pipeline that idles between events spends much of its CPU on wake-ups,
// and on a host with a few shared CPUs what a wake-up costs depends on where
// the kernel happens to place the runtime's threads: packed on one CPU a
// hand-off is a context switch, spread over two it is an interrupt and an
// idle exit. The placement sticks for a process's lifetime and flips with
// whatever else the host runs, so the same commit read 7.8 to 15 µs of CPU
// per record on tree_paced from one run to the next. One P on one CPU has
// only one placement.
package confine

import (
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is the kernel's affinity mask, wide enough for 1024 CPUs.
type cpuSet [16]uint64

func affinity(call uintptr, tid int, set *cpuSet) error {
	if _, _, errno := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set))); errno != 0 {
		return errno
	}
	return nil
}

// OneCPU sets GOMAXPROCS to 1 and moves every thread of the process onto the
// highest-numbered CPU it may run on (the lowest usually takes a guest's
// interrupts). restore undoes both. When the kernel refuses the affinity the
// process still runs on one P, and err says why it is not pinned.
func OneCPU() (restore func(), err error) {
	procs := runtime.GOMAXPROCS(1)
	var all, one cpuSet
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &all); err != nil {
		return func() { runtime.GOMAXPROCS(procs) }, err
	}
	for w := len(all) - 1; w >= 0; w-- {
		if all[w] != 0 {
			one[w] = 1 << (bits.Len64(all[w]) - 1)
			break
		}
	}
	restore = func() {
		setAll(&all)
		runtime.GOMAXPROCS(procs)
	}
	if err := setAll(&one); err != nil {
		setAll(&all)
		return func() { runtime.GOMAXPROCS(procs) }, err
	}
	return restore, nil
}

// setAll gives every thread of the process the affinity set. A thread the
// runtime starts later inherits its creator's, so passes repeat until one
// finds no thread it has not already moved.
func setAll(set *cpuSet) error {
	moved := make(map[int]bool)
	for pass := 0; pass < 8; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || moved[tid] {
				continue
			}
			// ESRCH: the thread exited after it was listed.
			if err := affinity(syscall.SYS_SCHED_SETAFFINITY, tid, set); err != nil && err != syscall.ESRCH {
				return err
			}
			moved[tid], fresh = true, true
		}
		if !fresh {
			break
		}
	}
	return nil
}
