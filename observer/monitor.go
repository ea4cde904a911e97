package observer

import (
	"context"
	"io"
	"time"

	"repro/heartbeat"
)

// Monitor watches one application and delivers a Status judgment every
// interval. It is the long-running form of the observer role: the paper's
// external scheduler polls the application's heart rate between decisions,
// and its cloud manager watches for flatlined nodes.
//
// Run consumes the application incrementally through its Stream: between
// judgments it absorbs only the records published since the last batch,
// and an interval in which nothing was published re-reads nothing at all.
// Judgments still fire every interval regardless, because silence is
// exactly what flatline/death detection must observe.
type Monitor struct {
	stream     Stream
	classifier *Classifier
	interval   time.Duration
	maxRecords int
	onStatus   func(Status)
	onError    func(error)
	clk        heartbeat.Clock // nil = wall clock; paces Run's intervals
}

// MonitorOption configures NewMonitor.
type MonitorOption func(*Monitor)

// WithClassifier sets the classifier (default: zero-value Classifier).
func WithClassifier(c *Classifier) MonitorOption {
	return func(m *Monitor) { m.classifier = c }
}

// WithMaxRecords sets how many records the judgment window retains
// (default: the classifier window, falling back to the application's
// default window).
func WithMaxRecords(n int) MonitorOption {
	return func(m *Monitor) { m.maxRecords = n }
}

// WithOnError installs a callback for observation errors (default:
// ignored; a stream that keeps failing will surface as Dead via the
// classifier Epoch).
func WithOnError(f func(error)) MonitorOption {
	return func(m *Monitor) { m.onError = f }
}

// WithMonitorClock runs the monitor on an explicit clock: Run's judgment
// intervals — and the classifier's notion of "now", unless it carries its
// own Clock — follow clk, so a virtual clock drives the monitor as a
// simulation event loop. A nil clk is the wall clock.
func WithMonitorClock(clk heartbeat.Clock) MonitorOption {
	return func(m *Monitor) { m.clk = clk }
}

// NewMonitor creates a Monitor that judges stream every interval and calls
// onStatus with each classification. A non-positive interval selects
// DefaultHubInterval (the loop would busy-spin on one). The monitor owns
// the stream from here on: Run closes it, if it is an io.Closer, when it
// returns.
func NewMonitor(stream Stream, interval time.Duration, onStatus func(Status), opts ...MonitorOption) *Monitor {
	if interval <= 0 {
		interval = DefaultHubInterval
	}
	m := &Monitor{
		stream:   stream,
		interval: interval,
		onStatus: onStatus,
	}
	for _, o := range opts {
		o(m)
	}
	if m.classifier == nil {
		m.classifier = &Classifier{}
	}
	return m
}

// Run judges every interval until ctx is cancelled, absorbing stream
// batches as they land in between. The first judgment fires immediately
// from whatever is already published; subsequent ones follow the interval.
// The classifier's Epoch is set to the start time if unset, enabling Dead
// detection for applications that never beat. Run returns when ctx is
// cancelled or the stream ends (the observed Heartbeat was closed); a
// final status is delivered for the stream's tail. The stream is released
// when Run returns, so a Monitor runs once.
func (m *Monitor) Run(ctx context.Context) {
	if m.classifier.Clock == nil {
		m.classifier.Clock = m.clk
	}
	if m.classifier.Epoch.IsZero() {
		m.classifier.Epoch = m.classifier.now()
	}
	stream := m.stream
	if c, ok := stream.(io.Closer); ok {
		defer c.Close()
	}
	win := NewWindow(m.windowCap())

	judge := func() { // classify the accumulated window and fan out
		st := m.classifier.ClassifyWindow(win)
		if m.onStatus != nil {
			m.onStatus(st)
		}
	}
	if eof, err := DrainInto(stream, win); err == nil {
		judge()
		if eof {
			return
		}
	} else if m.onError != nil {
		m.onError(err)
	}

	for {
		deadline := clockNow(m.clk).Add(m.interval)
		eof, err := CollectInto(ctx, stream, win, deadline, m.clk)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if m.onError != nil {
				m.onError(err)
			}
			// Pace retries against a persistently failing stream; no
			// status is delivered for a failed interval.
			if !heartbeat.SleepCtx(ctx, m.clk, deadline.Sub(clockNow(m.clk))) {
				return
			}
			continue
		}
		judge()
		if eof || ctx.Err() != nil {
			return
		}
	}
}

func (m *Monitor) windowCap() int {
	if m.maxRecords > 0 {
		return m.maxRecords
	}
	return m.classifier.Window
}
