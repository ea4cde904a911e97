// Package inside sits under clock/, the wallclock analyzer's seam
// directory: the clock implementation is the one place that may read the
// wall freely, so nothing here wants anything.
package inside

import "time"

func seamCode() time.Time {
	time.Sleep(time.Millisecond)
	return time.Now()
}
