//go:build !linux

// Package confine restricts the benchmark's own process to one CPU for the
// length of a workload. Off Linux it sets GOMAXPROCS to 1 and leaves thread
// placement to the host.
package confine

import "runtime"

// OneCPU sets GOMAXPROCS to 1; restore undoes it.
func OneCPU() (restore func(), err error) {
	procs := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(procs) }, nil
}
