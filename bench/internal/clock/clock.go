// Package clock is the benchmark's one wall-clock seam. The repository's
// own code runs on an injected heartbeat.Clock so the simulator can drive it
// under virtual time (tools/hbvet's wallclock pass enforces that); a
// benchmark exists to measure real time, so every read, sleep and deadline
// it needs is taken here, once, each with its waiver. Nothing else under
// bench/ may name package time's clock functions.
package clock

import (
	"context"
	"time"
)

// Nanos reads the wall clock as Unix nanoseconds — the same scale
// heartbeat.SystemClock stamps records with, so a record's age is a plain
// subtraction.
func Nanos() int64 {
	return time.Now().UnixNano() //hbvet:allow wallclock -- benchmark driver: measures real time
}

// Sleep blocks for d of real time.
func Sleep(d time.Duration) {
	time.Sleep(d) //hbvet:allow wallclock -- benchmark driver: measures real time
}

// WithTimeout is context.WithTimeout on real time.
func WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d) //hbvet:allow wallclock -- benchmark driver: measures real time
}

// SleepUntil sleeps until the wall clock reaches due (Unix nanoseconds) and
// returns the reading it woke to — later than due by however much the host's
// timer overshot.
func SleepUntil(due int64) int64 {
	for {
		now := Nanos()
		if now >= due {
			return now
		}
		Sleep(time.Duration(due - now))
	}
}
