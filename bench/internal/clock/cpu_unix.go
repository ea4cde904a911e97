//go:build unix

package clock

import "syscall"

// CPUNanos returns the user+system CPU time this process has consumed.
func CPUNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
