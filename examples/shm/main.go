// Shared-memory observation (§2.3, §3): the producer publishes heartbeats
// into an mmap'd region — each beat is a copy into mapped memory, no
// syscalls — and a separate process observes it by mapping the same file
// read-only. This is the paper's "standardized shared-memory buffer"
// topology: the registry file plays the buffer, the heartbeat ring's
// layout and protocol (shared with hbfile) play the protocol, and the
// observer costs the producer nothing no matter how often it polls.
//
// The example re-executes itself as the producer child, watches the region
// from the parent, and closes with the delivery-contract audit every other
// transport in this repo passes: delivered + missed == head
// (simcheck.Conserved), sequence numbers dense within each batch.
//
//	go run ./examples/shm
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/hbshm"
	"repro/heartbeat"
	"repro/internal/simcheck"
)

const (
	roleEnv = "HBSHM_EXAMPLE_ROLE"
	pathEnv = "HBSHM_EXAMPLE_PATH"
	beats   = 50_000
	window  = 100
)

func main() {
	if os.Getenv(roleEnv) == "producer" {
		produce(os.Getenv(pathEnv))
		return
	}

	dir, err := os.MkdirTemp("", "hbshm-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "app.shm")

	// Re-exec this binary as the producer child: a genuinely separate
	// process, sharing nothing with us but the mapped file.
	child := exec.Command(os.Args[0])
	child.Env = append(os.Environ(), roleEnv+"=producer", pathEnv+"="+path)
	child.Stdout, child.Stderr = os.Stdout, os.Stderr
	if err := child.Start(); err != nil {
		log.Fatal(err)
	}

	// The region appears when the child creates it; retry until it maps.
	var r *hbshm.Reader
	for {
		if r, err = hbshm.Open(path); err == nil {
			break
		}
		time.Sleep(time.Millisecond) //hbvet:allow wallclock -- cross-process retry: waiting for the child to create the region, no shared clock exists
	}
	fmt.Printf("observer: mapped %s (window %d, capacity %d)\n", path, r.Window(), r.Capacity())

	s := hbshm.StreamFrom(r, time.Millisecond, 0, nil)
	defer s.Close()
	tracker := simcheck.NewTracker("shm observer", 0)
	var delivered, missed, head uint64
	batches := 0
	for {
		b, err := s.Next(context.Background())
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if err := tracker.Absorb(b); err != nil {
			log.Fatal(err)
		}
		delivered += uint64(len(b.Records))
		missed += b.Missed
		head = b.Count
		if batches++; batches%50 == 0 {
			if rate, ok, _ := r.Rate(0); ok {
				fmt.Printf("observer: head %d, %.0f beats/s over the window\n", head, rate)
			}
		}
		s.Recycle(b)
	}
	if err := child.Wait(); err != nil {
		log.Fatal(err)
	}

	// The audit: everything the producer published is either in our hands
	// or accounted as lapped — across process boundaries, with zero
	// coordination beyond the mapping itself.
	if err := simcheck.Conserved("shm observer", delivered, missed, head); err != nil {
		log.Fatal(err)
	}
	if head != beats {
		log.Fatalf("observer saw head %d, producer published %d", head, beats)
	}
	fmt.Printf("observer: %d delivered + %d lapped = %d published — conserved\n", delivered, missed, head)
}

// produce is the child: an instrumented application whose only observation
// cost is stores into the mapped ring.
func produce(path string) {
	w, err := hbshm.Create(path, window, 1<<14)
	if err != nil {
		log.Fatal(err)
	}
	hb, err := heartbeat.New(window, heartbeat.WithSink(w))
	if err != nil {
		log.Fatal(err)
	}
	if err := hb.SetTarget(1000, 100000); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < beats; i++ {
		hb.Beat()
		if i%2000 == 0 {
			time.Sleep(time.Millisecond) //hbvet:allow wallclock -- real pacing so the observer process sees distinct phases
		}
	}
	hb.Flush()
	hb.Close()
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("producer: published %d beats through %s\n", beats, path)
}
