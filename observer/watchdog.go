package observer

// Watchdog implements the §2.3 system-administration use of heartbeats:
// "heartbeats might be used to detect application hangs or crashes, and
// restart the application". It is a pure state machine over Status
// judgments — feed it from a Hub callback or any polling loop — that
// debounces transient stalls and fires a restart hook after sustained
// flatline or death.
type Watchdog struct {
	// Threshold is how many consecutive Flatlined/Dead judgments trigger
	// a restart (default 3: one slow poll is noise, three is a hang).
	Threshold int
	// OnRestart is invoked once per trigger with the offending status.
	OnRestart func(Status)

	consecutive int
	restarts    int
}

func (w *Watchdog) threshold() int {
	if w.Threshold <= 0 {
		return 3
	}
	return w.Threshold
}

// Observe feeds one status and reports whether a restart fired. After
// firing, the debounce counter resets, so a still-hung application will
// trigger again after another Threshold judgments.
func (w *Watchdog) Observe(st Status) bool {
	switch st.Health {
	case Flatlined, Dead:
		w.consecutive++
	default:
		w.consecutive = 0
		return false
	}
	if w.consecutive < w.threshold() {
		return false
	}
	w.consecutive = 0
	w.restarts++
	if w.OnRestart != nil {
		w.OnRestart(st)
	}
	return true
}

// Restarts returns how many times the watchdog has fired.
func (w *Watchdog) Restarts() int { return w.restarts }
