// Package pump is the one upstream read loop of the observation stack: the
// loop that blocks in a stream's Next and hands each delivery to its
// consumer. It has three users: observer.Hub and hbnet.Relay run one pump
// per registered stream, and cmd/hbmon runs one per report interval. The
// rules every such loop must follow live here, once, and the consumers
// keep only what is their own (where a delivery goes, what a failure
// means).
package pump

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"repro/heartbeat"
)

// Run reads next until ctx is cancelled or the stream ends, and reports
// whether it ended:
//
//   - ctx is checked before every call to next. A stream whose producer
//     outpaces the consumer has data even under a cancelled context (the
//     non-blocking drain), so a shutdown would otherwise never stop the loop.
//   - Each call waits at most every on clk, then next is called again.
//     Re-entering Next is itself a read (an in-process stream merges pending
//     shard records), so a low-rate producer beating through thread shards
//     with no flusher still publishes at least once per interval.
//   - A delivery is passed to deliver even when ctx was cancelled meanwhile:
//     it has left the stream's cursor, and this is the last place it exists.
//   - context.DeadlineExceeded from next is an idle interval: poll again.
//   - io.EOF ends the stream.
//   - Any other error goes to fail, which reports it and says whether it is
//     terminal. A terminal failure ends the stream as io.EOF does; otherwise
//     the next read waits every on clk.
func Run[T any](ctx context.Context, clk heartbeat.Clock, every time.Duration, next func(context.Context) (T, error), deliver func(T), fail func(error) bool) (ended bool) {
	w := newWait(ctx, clk)
	defer w.stop()
	for ctx.Err() == nil {
		w.arm(every)
		v, err := next(w)
		w.disarm()
		switch {
		case err == nil:
			deliver(v)
		case ctx.Err() != nil:
			return false
		case errors.Is(err, context.DeadlineExceeded):
		case errors.Is(err, io.EOF):
			return true
		default:
			if fail(err) {
				return true
			}
			heartbeat.SleepCtx(ctx, clk, every) // pace retries against a persistently failing stream
		}
	}
	return false
}

// wait is the reusable deadline context behind Run's waits: one context
// and one heartbeat.Timer per pump, on any clock, instead of one of each
// per batch (context.WithTimeout in the loop is a measurable allocation
// rate at high fan-in, and disarm stops the timer, so a delivery leaves no
// virtual timer queued). arm begins a new wait; a fired deadline reports
// context.DeadlineExceeded until the next arm; parent cancellation is
// terminal. Single-consumer, like the loop that owns it: arm and disarm
// never overlap a live wait.
type wait struct {
	parent context.Context
	clk    heartbeat.Clock
	timer  heartbeat.Timer
	stop   func() bool // detaches the parent watch; the owning loop calls it on exit

	mu    sync.Mutex
	done  chan struct{}
	err   error
	armed bool
}

func newWait(parent context.Context, clk heartbeat.Clock) *wait {
	p := &wait{parent: parent, clk: clk, done: make(chan struct{})}
	p.stop = context.AfterFunc(parent, func() {
		p.mu.Lock()
		if p.err == nil {
			p.err = parent.Err()
			close(p.done)
		}
		p.mu.Unlock()
	})
	return p
}

func (p *wait) fire() {
	p.mu.Lock()
	if p.armed && p.err == nil {
		p.armed = false
		p.err = context.DeadlineExceeded
		close(p.done)
	}
	p.mu.Unlock()
}

// arm begins a new wait of d, clearing a previous wait's expiry (whose
// closed Done channel cannot be reopened: an expired wait costs the next
// one a fresh channel). A stale timer firing across the arm can only expire
// the new wait early — a spurious timeout Run already treats as an idle
// re-poll.
func (p *wait) arm(d time.Duration) {
	p.mu.Lock()
	if p.err == context.DeadlineExceeded {
		p.err = nil
		p.done = make(chan struct{})
	}
	p.armed = p.err == nil
	p.mu.Unlock()
	if p.timer == nil {
		p.timer = heartbeat.AfterFunc(p.clk, d, p.fire)
	} else {
		p.timer.Reset(d)
	}
}

// disarm ends the current wait without expiring it.
func (p *wait) disarm() {
	p.timer.Stop()
	p.mu.Lock()
	p.armed = false
	p.mu.Unlock()
}

func (p *wait) Deadline() (time.Time, bool) { return time.Time{}, false }
func (p *wait) Value(key any) any           { return p.parent.Value(key) }

func (p *wait) Done() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done
}

func (p *wait) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Group is the goroutine bookkeeping of one consumer's pumps: at most one
// goroutine per Pump, all derived from the consumer's current Run context,
// and none outliving Close. A pump started while the group is open (a
// stream registered while Run is live) joins the same run.
type Group struct {
	mu     sync.Mutex // guards ctx, cancel and every member Pump's fields
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Pump is one registration's slot in a Group.
type Pump struct {
	cancel context.CancelFunc
	done   chan struct{} // closed when the goroutine exits; nil before the first start
}

// closed stands in for the exit of a pump that never started.
var closed = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// Open begins a run under ctx: Go starts pumps until ctx is cancelled or
// Close is called.
func (g *Group) Open(ctx context.Context) {
	g.mu.Lock()
	g.ctx, g.cancel = context.WithCancel(ctx)
	g.mu.Unlock()
}

// Go starts p's goroutine running body under a context of its own, unless
// the group is not open or p's previous goroutine is still running.
func (g *Group) Go(p *Pump, body func(ctx context.Context)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ctx == nil || g.ctx.Err() != nil {
		return
	}
	if p.done != nil {
		select {
		case <-p.done:
		default:
			return
		}
	}
	ctx, cancel := context.WithCancel(g.ctx)
	done := make(chan struct{})
	p.cancel, p.done = cancel, done
	g.wg.Add(1)
	go func() {
		defer func() {
			cancel()
			close(done)
			g.wg.Done()
		}()
		body(ctx)
	}()
}

// Cancel stops p's goroutine, if any, and returns a channel closed once it
// has exited.
func (g *Group) Cancel(p *Pump) <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if p.done == nil {
		return closed
	}
	p.cancel()
	return p.done
}

// Close cancels every pump of the run and waits for all of them to exit.
func (g *Group) Close() {
	g.mu.Lock()
	if g.cancel != nil {
		g.cancel()
	}
	g.mu.Unlock()
	g.wg.Wait()
}
