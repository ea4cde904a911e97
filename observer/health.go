package observer

import (
	"time"

	"repro/heartbeat"
)

// Health is an observer's judgment of an application from its heartbeats
// alone — the paper's fault-tolerance thesis is that performance and health
// collapse into the same signal ("a lack of heartbeats from a particular
// node would indicate that it has failed, and slow or erratic heartbeats
// could indicate that a machine is about to fail", §2.6).
type Health int

//hbvet:api -- paper §2.6: every judgment a Status can carry
const (
	// Unknown: not enough heartbeats to judge yet.
	Unknown Health = iota
	// Healthy: beating, and inside the target window if one is set.
	Healthy
	// Slow: measured rate below the advertised minimum target.
	Slow
	// Fast: measured rate above the advertised maximum target.
	Fast
	// Erratic: rate acceptable but inter-beat intervals highly variable —
	// the "about to fail" early-warning signal.
	Erratic
	// Flatlined: beats have stopped for much longer than the expected
	// inter-beat interval; the application is hung or starved.
	Flatlined
	// Dead: never beat at all within the observation grace period.
	Dead
)

// String returns the lowercase name of the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Slow:
		return "slow"
	case Fast:
		return "fast"
	case Erratic:
		return "erratic"
	case Flatlined:
		return "flatlined"
	case Dead:
		return "dead"
	default:
		return "unknown"
	}
}

// Status is the result of classifying one Window.
type Status struct {
	Health     Health
	Rate       float64 // beats/s over the classifier window (0 if !RateOK)
	RateOK     bool
	Count      uint64
	LastBeat   time.Time     // zero if no beats
	SinceLast  time.Duration // time since last beat at classification
	IntervalCV float64       // coefficient of variation of inter-beat gaps
	TargetMin  float64
	TargetMax  float64
	TargetSet  bool
}

// Classifier turns Windows into Status judgments. The zero value uses
// sensible defaults; set Clock for deterministic tests.
type Classifier struct {
	// Window is the averaging window in beats (0: the application's default).
	Window int
	// FlatlineFactor: a gap exceeding FlatlineFactor × the expected
	// inter-beat interval marks the app Flatlined. Default 16.
	FlatlineFactor float64
	// ErraticCV: an interval coefficient of variation above this marks
	// the app Erratic. Default 1.0.
	ErraticCV float64
	// Grace: how long an app may remain beat-free after observation
	// starts before it is declared Dead. Default 10s.
	Grace time.Duration
	// Clock supplies "now" (default: wall clock).
	Clock heartbeat.Clock
	// Epoch anchors the Dead grace period; typically the time
	// observation began. Zero disables Dead classification.
	Epoch time.Time
}

func (c *Classifier) flatlineFactor() float64 {
	if c.FlatlineFactor <= 0 {
		return 16
	}
	return c.FlatlineFactor
}

func (c *Classifier) erraticCV() float64 {
	if c.ErraticCV <= 0 {
		return 1.0
	}
	return c.ErraticCV
}

func (c *Classifier) grace() time.Duration {
	if c.Grace <= 0 {
		return 10 * time.Second
	}
	return c.Grace
}

func (c *Classifier) now() time.Time {
	return heartbeat.Now(c.Clock)
}

// ClassifyWindow judges the state accumulated in a stream consumer's
// Window. The windowed rate and interval statistics are cached inside the
// Window and recomputed only when a batch delivered new records, so an
// idle tick — reclassifying for flatline/death detection while no beats
// arrive — does no per-record work.
func (c *Classifier) ClassifyWindow(w *Window) Status {
	rate, rateOK, cv := w.cachedStats(c.Window)
	targetMin, targetMax, targetSet := w.Target()
	now := c.now()
	st := Status{
		Count:     w.count,
		TargetMin: targetMin,
		TargetMax: targetMax,
		TargetSet: targetSet,
	}
	if len(w.recs) == 0 {
		if !c.Epoch.IsZero() && now.Sub(c.Epoch) > c.grace() {
			st.Health = Dead
		} else {
			st.Health = Unknown
		}
		return st
	}
	st.LastBeat = w.LastBeat()
	st.SinceLast = now.Sub(st.LastBeat)
	st.Rate, st.RateOK = rate.PerSec, rateOK
	st.IntervalCV = cv

	// Expected inter-beat interval: from the target if set, else measured.
	var expected time.Duration
	switch {
	case targetSet && targetMin > 0:
		expected = time.Duration(float64(time.Second) / targetMin)
	case st.RateOK && st.Rate > 0:
		expected = time.Duration(float64(time.Second) / st.Rate)
	}
	if expected > 0 && st.SinceLast > time.Duration(c.flatlineFactor()*float64(expected)) {
		st.Health = Flatlined
		return st
	}
	if !st.RateOK {
		st.Health = Unknown
		return st
	}
	if targetSet {
		if st.Rate < targetMin {
			st.Health = Slow
			return st
		}
		if st.Rate > targetMax {
			st.Health = Fast
			return st
		}
	}
	if st.IntervalCV > c.erraticCV() {
		st.Health = Erratic
		return st
	}
	st.Health = Healthy
	return st
}
