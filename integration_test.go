package repro

// End-to-end integration on the real wall clock — no simulated machine:
// an application goroutine beats through a file-backed sink while doing
// real work; an external monitor classifies its health through the file;
// a hang is judged flatlined and the application "restarts". This is the
// complete Figure 1(b) loop running live.

import (
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/hbfile"
	"repro/heartbeat"
	"repro/internal/parsec"
	"repro/observer"
)

func TestEndToEndLiveMonitoring(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock integration test")
	}
	path := filepath.Join(t.TempDir(), "live.hb")
	w, err := hbfile.Create(path, 10, 1024)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := heartbeat.New(10, heartbeat.WithSink(w))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	if err := hb.SetTarget(20, 100000); err != nil {
		t.Fatal(err)
	}

	// The application: real Black-Scholes batches, a beat per batch,
	// hanging when told to.
	var hung atomic.Bool
	stop := make(chan struct{})
	appDone := make(chan struct{})
	go func() {
		defer close(appDone)
		k := parsec.NewBlackscholes()
		rng := rand.New(rand.NewSource(1))
		var sink uint64
		for {
			select {
			case <-stop:
				_ = sink
				return
			default:
			}
			if hung.Load() {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			for i := 0; i < 300; i++ {
				cs, _ := k.DoUnit(rng)
				sink ^= cs
			}
			hb.Beat()
		}
	}()
	defer func() { close(stop); <-appDone }()

	// The observer: a separate reader over the same file.
	r, err := hbfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	classifier := &observer.Classifier{FlatlineFactor: 8, Epoch: time.Now()}
	stream, win := observer.ReaderStream(r, 0, 0, nil), observer.NewWindow(0)
	poll := func() observer.Status {
		if _, err := observer.DrainInto(stream, win); err != nil {
			t.Fatal(err)
		}
		return classifier.ClassifyWindow(win)
	}

	// Phase 1: the application must be judged alive and beating.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := poll()
		if st.RateOK && st.Health == observer.Healthy || st.Health == observer.Fast {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("application never judged healthy: %+v", poll())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2: hang the application; the observer must judge it
	// flatlined, and the "restart" resumes beating.
	hung.Store(true)
	deadline = time.Now().Add(10 * time.Second)
	for {
		st := poll()
		if st.Health == observer.Flatlined {
			hung.Store(false)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hang never judged flatlined; last status %+v", st)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Phase 3: after the restart the application recovers.
	deadline = time.Now().Add(5 * time.Second)
	for {
		st := poll()
		if st.Health == observer.Healthy || st.Health == observer.Fast {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("application never recovered: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := hb.SinkErr(); err != nil {
		t.Fatal(err)
	}
}
