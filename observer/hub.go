package observer

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/heartbeat"
	"repro/internal/pump"
)

// defaultHubInterval is the judgment cadence a Hub falls back to when
// constructed with a non-positive interval.
const defaultHubInterval = 100 * time.Millisecond

// NamedStatus pairs an application name with its latest Status.
type NamedStatus struct {
	Name   string
	Status Status
}

// Hub multiplexes the heartbeat streams of many named applications into
// one control loop — the §2.4 "organic OS" observer that watches every
// registered application at once, as a library feature instead of a
// hand-rolled loop per deployment. Each application gets its own
// Classifier and an incremental Window retaining the classifier's Window
// records (0: the application's own default); the hub fans
// per-application Status judgments out through one callback. A hub of one
// application is the §2.3 monitor.
//
// Two driving modes share the same state:
//
//   - Run(ctx) pumps every stream concurrently (one goroutine per
//     stream, each blocked in Next — no polling) into a single loop that
//     re-judges an application when its batches land and re-judges all of
//     them every interval, so silent applications still progress toward
//     Flatlined/Dead.
//   - Step() drains every stream without blocking and returns all
//     judgments, for deterministic (simulated-clock) loops.
//
// Do not mix Run and Step concurrently: streams are single-consumer.
// Add and the status accessors are safe to call at any time.
type Hub struct {
	interval time.Duration
	onStatus func(name string, st Status)
	mkClass  func(name string) *Classifier
	onError  func(name string, err error)
	clk      heartbeat.Clock // nil = wall clock; paces Run's ticks and pumps

	mu      sync.Mutex
	apps    map[string]*hubApp
	order   []string
	events  chan hubEvent
	judging chan struct{} // closed once the current Run's loop stops taking events
	pumps   pump.Group
}

type hubApp struct {
	name   string
	stream Stream
	win    *Window
	cls    *Classifier
	last   Status
	judged bool
	eof    bool
	// removing is set by Remove before it cancels the pump and waits for it
	// without h.mu; the registration stays until the pump has exited.
	removing bool
	pump     pump.Pump
}

// hubEvent is what a pump hands Run's loop: a batch, or a stream failure.
type hubEvent struct {
	app   *hubApp
	batch Batch
	err   error
}

// HubOption configures NewHub.
type HubOption func(*Hub)

// WithHubClassifier supplies the per-application classifier factory; it is
// invoked once per Add with the application's name. The default is a
// zero-value Classifier per application.
func WithHubClassifier(mk func(name string) *Classifier) HubOption {
	return func(h *Hub) { h.mkClass = mk }
}

// WithHubOnError installs a callback for per-application stream errors
// (default: ignored; a stream that keeps failing surfaces as Flatlined or
// Dead through its silence).
//
//hbvet:api -- user need: see per-application stream errors instead of only their silence
func WithHubOnError(f func(name string, err error)) HubOption {
	return func(h *Hub) { h.onError = f }
}

// WithHubClock runs the hub on an explicit clock: Run's judgment ticks,
// its pump re-poll bounds, and the default classifiers' notion of "now"
// all follow clk — under a virtual clock (sim.Clock) the whole hub becomes
// a deterministic simulation participant. A nil clk is the wall clock.
//
//hbvet:api -- user need: run the hub on a virtual clock, in tests and simulations
func WithHubClock(clk heartbeat.Clock) HubOption {
	return func(h *Hub) { h.clk = clk }
}

// NewHub creates a hub that judges every registered application at least
// every interval (interval <= 0 selects 100 ms) and calls
// onStatus — which may be nil — with each judgment.
func NewHub(interval time.Duration, onStatus func(name string, st Status), opts ...HubOption) *Hub {
	if interval <= 0 {
		interval = defaultHubInterval
	}
	h := &Hub{
		interval: interval,
		onStatus: onStatus,
		apps:     make(map[string]*hubApp),
		events:   make(chan hubEvent, 64),
	}
	for _, o := range opts {
		o(h)
	}
	return h
}

// Add registers an application's stream under a unique name. Applications
// may be added while Run is active; their pump starts immediately. The hub
// owns a registered stream: Remove closes it if it is an io.Closer.
func (h *Hub) Add(name string, stream Stream) error {
	if stream == nil {
		return fmt.Errorf("observer: nil stream for %q", name)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.apps[name]; dup {
		return fmt.Errorf("observer: duplicate app %q", name)
	}
	var cls *Classifier
	if h.mkClass != nil {
		cls = h.mkClass(name)
	}
	if cls == nil {
		cls = &Classifier{}
	}
	if cls.Clock == nil {
		cls.Clock = h.clk
	}
	if cls.Epoch.IsZero() {
		cls.Epoch = cls.now()
	}
	a := &hubApp{name: name, stream: stream, win: NewWindow(cls.Window), cls: cls}
	h.apps[name] = a
	h.order = append(h.order, name)
	h.startPumpLocked(a) // joins a live Run; a no-op otherwise
	return nil
}

// Remove unregisters an application, stops its pump (if running) and
// waits for it to exit, then releases its stream when the stream supports
// Close — so repeatedly adding and removing live applications leaks
// nothing, and no Next is still reading a stream when it is closed.
// Remove must not be called from the hub's callbacks, which run on Run's
// goroutine: the removal would wait for a pump that may be waiting for it.
//
//hbvet:api -- user need: an application leaves a running hub (elastic membership)
func (h *Hub) Remove(name string) {
	h.mu.Lock()
	a, ok := h.apps[name]
	if !ok || a.removing {
		h.mu.Unlock()
		return
	}
	a.removing = true // no Run restarts its pump
	done := h.pumps.Cancel(&a.pump)
	h.mu.Unlock()
	<-done // without h.mu: the pump's deliveries take it
	h.mu.Lock()
	delete(h.apps, name)
	for i, n := range h.order {
		if n == name {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
	if c, ok := a.stream.(io.Closer); ok {
		c.Close()
	}
}

// Status returns the latest judgment for name; ok is false before the
// first judgment or for an unknown name.
//
//hbvet:api -- user need: read the latest judgment without an onStatus callback
func (h *Hub) Status(name string) (Status, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.apps[name]
	if !ok || !a.judged {
		return Status{}, false
	}
	return a.last, true
}

// Run multiplexes every registered stream until ctx is cancelled. An
// application is re-judged immediately when one of its batches lands (the
// fan-out fires on health changes) and every interval regardless (the
// fan-out fires for every application), so both fast degradation and
// silent death are noticed promptly. When Run returns, every pump has
// exited and every batch a pump consumed is in its application's window —
// the hub may be Run again with a fresh context, or stepped.
func (h *Hub) Run(ctx context.Context) {
	h.mu.Lock()
	h.pumps.Open(ctx)
	judging := make(chan struct{})
	h.judging = judging
	for _, name := range h.order {
		h.startPumpLocked(h.apps[name])
	}
	h.mu.Unlock()
	defer func() {
		close(judging)
		h.pumps.Close() // streams are single-consumer: no pump may outlive Run
		h.mu.Lock()
		h.absorbQueuedLocked()
		h.mu.Unlock()
	}()
	tick := heartbeat.NewTicker(h.clk, h.interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case ev := <-h.events:
			h.handleEvent(ev)
		case <-tick.C():
			tick.Next()
			h.judgeAll(true)
		}
	}
}

// startPumpLocked starts a's pump (internal/pump). It hands every batch and
// failure to Run's loop, which keeps judgments and callbacks on Run's
// goroutine. Once the loop has stopped, the pump absorbs a batch in hand
// itself, behind whatever the loop left queued, so nothing it consumed is
// lost or reordered. Callers hold h.mu.
func (h *Hub) startPumpLocked(a *hubApp) {
	if a.removing {
		return
	}
	judging := h.judging
	h.pumps.Go(&a.pump, func(ctx context.Context) {
		send := func(ev hubEvent) bool {
			select {
			case h.events <- ev:
				return true
			case <-judging:
				return false
			}
		}
		deliver := func(b Batch) {
			if !send(hubEvent{app: a, batch: b}) {
				h.mu.Lock()
				h.absorbQueuedLocked()
				a.win.Absorb(b)
				h.mu.Unlock()
			}
		}
		fail := func(err error) bool {
			send(hubEvent{app: a, err: err})
			return false
		}
		if pump.Run(ctx, h.clk, h.interval, a.stream.Next, deliver, fail) {
			h.mu.Lock()
			a.eof = true
			h.mu.Unlock()
		}
	})
}

// absorbQueuedLocked absorbs, without judging, every batch still queued for
// Run's loop. Callers hold h.mu, after the loop has stopped.
func (h *Hub) absorbQueuedLocked() {
	for {
		select {
		case ev := <-h.events:
			if ev.err == nil {
				ev.app.win.Absorb(ev.batch)
			}
		default:
			return
		}
	}
}

func (h *Hub) handleEvent(ev hubEvent) {
	h.mu.Lock()
	a := ev.app
	// Identity, not name: after Remove("x")+Add("x") an in-flight event
	// from the removed app must not be attributed to its successor.
	if live, ok := h.apps[a.name]; !ok || live != a {
		h.mu.Unlock()
		return // removed while the event was in flight
	}
	if ev.err != nil {
		cb := h.onError
		h.mu.Unlock()
		if cb != nil {
			cb(a.name, ev.err)
		}
		return
	}
	a.win.Absorb(ev.batch)
	st := a.cls.ClassifyWindow(a.win)
	changed := !a.judged || st.Health != a.last.Health
	a.last, a.judged = st, true
	cb := h.onStatus
	h.mu.Unlock()
	if changed && cb != nil {
		cb(a.name, st)
	}
}

// judgeAll reclassifies every application; emit fans every judgment out.
func (h *Hub) judgeAll(emit bool) {
	h.mu.Lock()
	out := make([]NamedStatus, 0, len(h.order))
	for _, name := range h.order {
		a := h.apps[name]
		st := a.cls.ClassifyWindow(a.win)
		a.last, a.judged = st, true
		out = append(out, NamedStatus{Name: name, Status: st})
	}
	cb := h.onStatus
	h.mu.Unlock()
	if emit && cb != nil {
		for _, ns := range out {
			cb(ns.Name, ns.Status)
		}
	}
}

// Step drains every stream without blocking, re-judges every application,
// fans the judgments out, and returns them in registration order — the
// deterministic alternative to Run for simulated-clock loops. Stream
// errors are routed to the WithHubOnError callback, like Run's pumps; the
// affected application is judged from its last good window.
func (h *Hub) Step() []NamedStatus {
	type appErr struct {
		name string
		err  error
	}
	h.mu.Lock()
	var failed []appErr
	for _, name := range h.order {
		a := h.apps[name]
		if a.eof {
			continue
		}
		eof, err := DrainInto(a.stream, a.win)
		if eof {
			a.eof = true
		}
		if err != nil {
			failed = append(failed, appErr{name, err})
		}
	}
	onError := h.onError
	h.mu.Unlock()
	if onError != nil {
		for _, f := range failed {
			onError(f.name, f.err)
		}
	}
	h.judgeAll(true)
	h.mu.Lock()
	out := make([]NamedStatus, 0, len(h.order))
	for _, name := range h.order {
		out = append(out, NamedStatus{Name: name, Status: h.apps[name].last})
	}
	h.mu.Unlock()
	return out
}
