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
//     stream, each blocked in Next — no polling). Each pump absorbs its own
//     batches and re-judges its application as they land; Run re-judges all
//     of them every interval, so silent applications still progress toward
//     Flatlined/Dead.
//   - Step() drains every stream without blocking and returns all
//     judgments, for deterministic (simulated-clock) loops.
//
// The hub is the stream owner controllers use: a controller (package
// scheduler) holds no stream, it decides from the Status a hub hands it.
// Callbacks are serialized and arrive in judgment order, whichever pump or
// tick judged, so a callback may drive a controller without a lock of its
// own. They run without the hub's lock held, but must not call Step or
// Remove: both wait for callbacks in progress.
//
// Do not mix Run and Step concurrently: streams are single-consumer.
// Add and the status accessors are safe to call at any time.
type Hub struct {
	interval time.Duration
	onStatus func(name string, st Status)
	mkClass  func(name string) *Classifier
	onError  func(name string, err error)
	clk      heartbeat.Clock // nil = wall clock; paces Run's ticks and pumps

	emit  sync.Mutex // held from a judgment through its callbacks; taken before mu
	mu    sync.Mutex
	apps  map[string]*hubApp
	order []string
	pumps pump.Group
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
	// without h.mu; the registration stays until the pump has exited, and
	// the pump keeps absorbing but reports nothing.
	removing bool
	pump     pump.Pump
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
// Remove must not be called from the hub's callbacks: the removal would
// wait for a pump that is waiting for the callback to return.
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
// application is re-judged by its pump as soon as one of its batches lands
// (the fan-out fires on health changes) and by Run every interval
// regardless (the fan-out fires for every application), so both fast
// degradation and silent death are noticed promptly. Run's tick is one
// timer re-armed as each tick is taken, not a fixed period. When Run
// returns, every pump has exited, no timer of the hub is queued, and every
// batch a pump consumed is in its application's window — the hub may be
// Run again with a fresh context, or stepped.
func (h *Hub) Run(ctx context.Context) {
	h.mu.Lock()
	h.pumps.Open(ctx)
	for _, name := range h.order {
		h.startPumpLocked(h.apps[name])
	}
	h.mu.Unlock()
	defer h.pumps.Close() // streams are single-consumer: no pump may outlive Run
	tick := make(chan struct{}, 1)
	t := heartbeat.AfterFunc(h.clk, h.interval, func() { tick <- struct{}{} })
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
			t.Reset(h.interval)
			h.emit.Lock()
			h.judgeAll()
			h.emit.Unlock()
		}
	}
}

// startPumpLocked starts a's pump (internal/pump), which absorbs and judges
// every batch itself before reading again, so a's batches land in order
// with no hand-off, and reports every failure. Callers hold h.mu.
func (h *Hub) startPumpLocked(a *hubApp) {
	if a.removing {
		return
	}
	h.pumps.Go(&a.pump, func(ctx context.Context) {
		deliver := func(b Batch) {
			h.emit.Lock()
			defer h.emit.Unlock()
			h.mu.Lock()
			a.win.Absorb(b)
			st := a.cls.ClassifyWindow(a.win)
			changed := !a.judged || st.Health != a.last.Health
			a.last, a.judged = st, true
			report := changed && !a.removing
			h.mu.Unlock()
			if report && h.onStatus != nil {
				h.onStatus(a.name, st)
			}
		}
		fail := func(err error) bool {
			h.emit.Lock()
			defer h.emit.Unlock()
			h.mu.Lock()
			report := !a.removing
			h.mu.Unlock()
			if report && h.onError != nil {
				h.onError(a.name, err)
			}
			return false
		}
		if pump.Run(ctx, h.clk, h.interval, a.stream.Next, deliver, fail) {
			h.mu.Lock()
			a.eof = true
			h.mu.Unlock()
		}
	})
}

// judgeAll re-judges every application and fans every judgment out, in
// registration order. Callers hold h.emit.
func (h *Hub) judgeAll() []NamedStatus {
	h.mu.Lock()
	out := make([]NamedStatus, 0, len(h.order))
	for _, name := range h.order {
		a := h.apps[name]
		st := a.cls.ClassifyWindow(a.win)
		a.last, a.judged = st, true
		out = append(out, NamedStatus{Name: name, Status: st})
	}
	h.mu.Unlock()
	if h.onStatus != nil {
		for _, ns := range out {
			h.onStatus(ns.Name, ns.Status)
		}
	}
	return out
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
	h.emit.Lock()
	defer h.emit.Unlock()
	h.mu.Lock()
	var failed []appErr
	for _, name := range h.order {
		a := h.apps[name]
		if a.eof {
			continue
		}
		eof, err := DrainInto(a.stream, a.win)
		a.eof = eof
		if err != nil {
			failed = append(failed, appErr{name, err})
		}
	}
	h.mu.Unlock()
	if h.onError != nil {
		for _, f := range failed {
			h.onError(f.name, f.err)
		}
	}
	return h.judgeAll()
}
