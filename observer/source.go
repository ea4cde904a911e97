// Package observer implements the external-observer side of the Application
// Heartbeats framework: reading a heartbeat-enabled application's progress,
// goals, and history, and classifying its health. This is the role the
// paper assigns to the OS, runtime, cloud manager, or system-administration
// tooling (§2.3, §2.4, §2.6, §5.3): observers read heartbeat data the
// application publishes and adapt on the application's behalf — or detect
// that it is hung, slow, erratic, or dead.
//
// The primary abstraction is Stream: a cursor-based incremental view that
// delivers each heartbeat record to a consumer exactly once, in batches,
// as the application publishes them. Consumers accumulate batches in a
// Window and judge it with Classifier.ClassifyWindow; Monitor packages
// that loop for one application, and Hub multiplexes many named
// applications into one loop with per-application Status fan-out. Native
// streams exist for in-process heartbeats (HeartbeatStream — wakes on
// flush, no polling) and for heartbeat files written by other processes
// and shared memory (ReaderStream — idle ticks cost one cursor read); package
// hbnet carries the same streams across machines (hbnet.Client satisfies
// Stream, so hubs and monitors take remote sources unchanged).
//
// Source, the original snapshot-pull interface, remains as a thin
// compatibility shim: every Source still works, and StreamOf converts one
// to its natural Stream (the built-in sources map to native streams;
// foreign implementations fall back to snapshot polling). New code should
// consume Streams; Snapshot re-reads the whole window on every call.
package observer

import (
	"fmt"

	"repro/hbfile"
	"repro/heartbeat"
)

// Snapshot is a point-in-time view of an application's heartbeat state.
type Snapshot struct {
	// Count is the total number of heartbeats registered so far.
	Count uint64
	// Window is the application's default averaging window.
	Window int
	// TargetMin and TargetMax are the advertised goal; valid when
	// TargetSet.
	TargetMin, TargetMax float64
	TargetSet            bool
	// Records holds the most recent heartbeats, oldest to newest.
	Records []heartbeat.Record
}

// Rate computes the average heart rate over the last window records of the
// snapshot; window <= 0 uses the application's default window. The math is
// heartbeat.RateOf — the one shared windowed-rate definition.
func (s Snapshot) Rate(window int) (perSec float64, ok bool) {
	if window <= 0 {
		window = s.Window
	}
	recs := s.Records
	if window > 0 && len(recs) > window {
		recs = recs[len(recs)-window:]
	}
	r, ok := heartbeat.RateOf(recs)
	return r.PerSec, ok
}

// Source supplies heartbeat snapshots to observers. Implementations exist
// for in-process heartbeats (HeartbeatSource) and for heartbeat ring files
// written by other processes (FileSource).
//
// Source is the pre-stream interface, kept as a compatibility shim: each
// Snapshot re-reads the last-N window whether or not anything changed.
// Migrate consumers to Stream (see StreamOf) for O(new records) cost.
//
// Implementations should populate each Record's Seq: stream adapters
// dedup by it (PollStream tolerates zero Seqs by falling back to
// Count-based dedup, but only dense sequence numbers give exact
// exactly-once forwarding).
type Source interface {
	// Snapshot returns the current state with up to maxRecords of the
	// most recent records.
	Snapshot(maxRecords int) (Snapshot, error)
}

// HeartbeatSource adapts an in-process *heartbeat.Heartbeat to Source.
// This is the self-observation path of Figure 1(a) in the paper.
func HeartbeatSource(hb *heartbeat.Heartbeat) Source { return hbSource{hb} }

type hbSource struct{ hb *heartbeat.Heartbeat }

func (s hbSource) Snapshot(maxRecords int) (Snapshot, error) {
	if maxRecords <= 0 {
		maxRecords = s.hb.Window()
	}
	snap := Snapshot{
		Count:   s.hb.Count(),
		Window:  s.hb.Window(),
		Records: s.hb.History(maxRecords),
	}
	snap.TargetMin, snap.TargetMax, snap.TargetSet = s.hb.Target()
	return snap, nil
}

// ThreadSource adapts a per-thread handle to Source, for observers that
// track individual workers.
func ThreadSource(t *heartbeat.Thread, window int) Source { return threadSource{t, window} }

type threadSource struct {
	t      *heartbeat.Thread
	window int
}

func (s threadSource) Snapshot(maxRecords int) (Snapshot, error) {
	if maxRecords <= 0 {
		maxRecords = s.window
	}
	return Snapshot{
		Count:   s.t.Count(),
		Window:  s.window,
		Records: s.t.History(maxRecords),
	}, nil
}

// FileSource adapts an hbfile.Reader to Source. This is the external-
// observation path of Figure 1(b): another process monitoring the
// application through the heartbeat file.
func FileSource(r *hbfile.Reader) Source { return fileSource{r} }

// LogSource adapts an hbfile.LogReader (the append-only full-history
// variant) to Source.
func LogSource(r *hbfile.LogReader) Source { return logSource{r} }

type logSource struct{ r *hbfile.LogReader }

func (s logSource) Snapshot(maxRecords int) (Snapshot, error) {
	if maxRecords <= 0 {
		maxRecords = s.r.Window()
	}
	count, err := s.r.Count()
	if err != nil {
		return Snapshot{}, fmt.Errorf("observer: %w", err)
	}
	recs, err := s.r.Last(maxRecords)
	if err != nil {
		return Snapshot{}, fmt.Errorf("observer: %w", err)
	}
	min, max, ok, err := s.r.Target()
	if err != nil {
		return Snapshot{}, fmt.Errorf("observer: %w", err)
	}
	return Snapshot{
		Count:     count,
		Window:    s.r.Window(),
		TargetMin: min,
		TargetMax: max,
		TargetSet: ok,
		Records:   recs,
	}, nil
}

type fileSource struct{ r *hbfile.Reader }

func (s fileSource) Snapshot(maxRecords int) (Snapshot, error) {
	if maxRecords <= 0 {
		maxRecords = s.r.Window()
	}
	cur, err := s.r.Cursor()
	if err != nil {
		return Snapshot{}, fmt.Errorf("observer: %w", err)
	}
	recs, err := s.r.Last(maxRecords)
	if err != nil {
		return Snapshot{}, fmt.Errorf("observer: %w", err)
	}
	min, max, ok, err := s.r.Target()
	if err != nil {
		return Snapshot{}, fmt.Errorf("observer: %w", err)
	}
	return Snapshot{
		Count:     cur,
		Window:    s.r.Window(),
		TargetMin: min,
		TargetMax: max,
		TargetSet: ok,
		Records:   recs,
	}, nil
}
