package pump

import (
	"context"
	"testing"
	"time"
)

// A wall-clock pump bounds its waits with one reusable context and timer.
// A wait that ends with a delivery allocates nothing, so the per-batch path
// of every hub and relay pump is allocation-free. A wait that times out
// costs the next wait one fresh Done channel (a closed channel cannot be
// reopened): one allocation per idle interval, never per batch.
func TestWallWaitAllocs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := newWallWait(ctx)
	defer w.stop()
	w.arm(time.Hour) // the first arm makes the timer
	w.disarm()

	if n := testing.AllocsPerRun(100, func() {
		w.arm(time.Hour)
		if w.Err() != nil {
			t.Fatal("an armed wait expired early")
		}
		w.disarm()
	}); n != 0 {
		t.Fatalf("a delivering wait allocates %v, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		w.arm(time.Microsecond)
		<-w.Done()
		w.disarm()
	}); n > 1 {
		t.Fatalf("an idle wait allocates %v, want at most the fresh Done channel", n)
	}
	if err := w.Err(); err != context.DeadlineExceeded {
		t.Fatalf("after an idle wait Err = %v, want DeadlineExceeded", err)
	}
}
