//go:build !unix

package clock

// CPUNanos is unavailable off unix; CPU-derived metrics read 0 there.
func CPUNanos() int64 { return 0 }
