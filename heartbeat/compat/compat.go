// Package compat mirrors the exact function shapes of Table 1 of the paper
// for readers porting code from the C reference implementation:
//
//	HB_initialize(window, local)      -> Initialize
//	HB_heartbeat(tag, local)          -> Heartbeat
//	HB_current_rate(window, local)    -> CurrentRate
//	HB_set_target_rate(min, max, ...) -> SetTargetRate
//	HB_get_target_min(local)          -> GetTargetMin
//	HB_get_target_max(local)          -> GetTargetMax
//	HB_get_history(n, local)          -> GetHistory
//
// The C API distinguishes per-thread ("local") from per-application
// ("global") heartbeats with a boolean, relying on the OS thread identity of
// the caller. Go deliberately hides thread identity, so this package keeps
// the boolean but resolves "the current thread" to a handle registered with
// RegisterThread from the worker goroutine. Idiomatic Go code should prefer
// package heartbeat directly.
package compat

import (
	"fmt"
	"sync"

	"repro/heartbeat"
)

// HB is a heartbeat instance created by Initialize. The zero value is
// invalid.
//
//hbvet:api -- paper §3: the reference C API, one method per HB_* call (README)
type HB struct {
	app *heartbeat.Heartbeat

	mu      sync.Mutex
	threads map[int64]*compatThread
	nextKey int64
}

// compatThread serializes beats on one registered thread. The C API lets
// any OS thread issue HB_heartbeat for any tid, so — unlike idiomatic users
// of heartbeat.Thread, which is single-producer for speed — the compat
// layer keeps the seed's anything-goes concurrency by taking a per-thread
// mutex around local beats.
type compatThread struct {
	mu sync.Mutex
	t  *heartbeat.Thread
}

// Initialize creates a heartbeat instance whose default window is window
// beats (HB_initialize). The local parameter of the C API selects whether
// per-thread buffers will be used; here per-thread buffers are always
// available once RegisterThread is called, so local is accepted for source
// compatibility and otherwise ignored.
//
//hbvet:api -- paper §3: HB_initialize (README)
func Initialize(window int, local bool, opts ...heartbeat.Option) (*HB, error) {
	_ = local
	app, err := heartbeat.New(window, opts...)
	if err != nil {
		return nil, err
	}
	return &HB{app: app, threads: make(map[int64]*compatThread)}, nil
}

// App exposes the underlying heartbeat.Heartbeat.
func (hb *HB) App() *heartbeat.Heartbeat { return hb.app }

// RegisterThread registers the calling goroutine as a thread and returns its
// key, to be passed as the tid argument of the local-flavored calls. The C
// API derives this implicitly from the caller's thread ID; Go requires it to
// be explicit.
func (hb *HB) RegisterThread(name string) int64 {
	hb.mu.Lock()
	defer hb.mu.Unlock()
	hb.nextKey++
	hb.threads[hb.nextKey] = &compatThread{t: hb.app.Thread(name)}
	return hb.nextKey
}

func (hb *HB) thread(tid int64) (*compatThread, error) {
	hb.mu.Lock()
	defer hb.mu.Unlock()
	t, ok := hb.threads[tid]
	if !ok {
		return nil, fmt.Errorf("compat: unknown thread key %d", tid)
	}
	return t, nil
}

// Heartbeat registers a heartbeat (HB_heartbeat). With local == false the
// beat lands in the application's global history and tid is ignored; with
// local == true it lands in the private history of the thread registered
// under tid.
func (hb *HB) Heartbeat(tag int64, local bool, tid int64) error {
	if !local {
		hb.app.BeatTag(tag)
		return nil
	}
	t, err := hb.thread(tid)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.t.BeatTag(tag)
	t.mu.Unlock()
	return nil
}

// CurrentRate returns the average heart rate over the last window beats
// (HB_current_rate); window == 0 uses the default window. It returns 0
// before two beats are available, as the C reference does.
func (hb *HB) CurrentRate(window int, local bool, tid int64) (float64, error) {
	if !local {
		r, _ := hb.app.Rate(window)
		return r, nil
	}
	t, err := hb.thread(tid)
	if err != nil {
		return 0, err
	}
	r, _ := t.t.Rate(window)
	return r, nil
}

// SetTargetRate advertises the application's target heart-rate range
// (HB_set_target_rate). Targets are global in the reference implementation;
// local is accepted for source compatibility.
func (hb *HB) SetTargetRate(min, max float64, local bool) error {
	_ = local
	return hb.app.SetTarget(min, max)
}

// GetTargetMin returns the advertised minimum target rate
// (HB_get_target_min), or 0 when no target has been set.
func (hb *HB) GetTargetMin(local bool) float64 {
	_ = local
	min, _, _ := hb.app.Target()
	return min
}

// GetTargetMax returns the advertised maximum target rate
// (HB_get_target_max), or 0 when no target has been set.
func (hb *HB) GetTargetMax(local bool) float64 {
	_ = local
	_, max, _ := hb.app.Target()
	return max
}

// GetHistory returns the last n heartbeats, oldest first (HB_get_history).
func (hb *HB) GetHistory(n int, local bool, tid int64) ([]heartbeat.Record, error) {
	if !local {
		return hb.app.History(n), nil
	}
	t, err := hb.thread(tid)
	if err != nil {
		return nil, err
	}
	return t.t.History(n), nil
}
