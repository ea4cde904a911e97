package hbnet

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/clock"
	"repro/control"
	"repro/heartbeat"
	"repro/internal/simcheck"
	"repro/observer"
	"repro/scheduler"
	"repro/sim"
)

// TestHelperProcessServeHeartbeat is not a test: re-executed as a child
// process (the classic helper-process pattern), it runs a heartbeat-
// enabled "application" serving its heartbeats over hbnet on an ephemeral
// loopback port, printing the address on stdout. It beats continuously
// until stdin closes.
func TestHelperProcessServeHeartbeat(t *testing.T) {
	if os.Getenv("HBNET_HELPER_PROCESS") != "1" {
		t.Skip("helper process, skipped in normal runs")
	}
	hb, err := heartbeat.New(20, heartbeat.WithCapacity(256))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hb.SetTarget(50, 5000)
	srv := NewServer()
	srv.PublishHeartbeat("app", hb)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	go srv.Serve(l)
	fmt.Printf("ADDR %s\n", l.Addr())
	os.Stdout.Sync()

	// Beat at ~500/s until the parent closes our stdin, then shut down
	// cleanly so subscribers see EOF rather than a broken connection.
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 1)
		os.Stdin.Read(buf)
	}()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			hb.Close()
			srv.Close()
			os.Exit(0)
		case <-tick.C:
			hb.Beat()
		}
	}
}

// startChildServer launches the helper process and returns its hbnet
// address plus a shutdown func that closes its stdin and reaps it.
func startChildServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=TestHelperProcessServeHeartbeat$", "-test.v=false")
	cmd.Env = append(os.Environ(), "HBNET_HELPER_PROCESS=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("child never printed its address")
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			stdin.Close()
			waited := make(chan struct{})
			go func() { cmd.Wait(); close(waited) }()
			select {
			case <-waited:
			case <-time.After(10 * time.Second):
				cmd.Process.Kill()
				<-waited
			}
		})
	}
	t.Cleanup(stop)
	return addr, stop
}

// The acceptance scenario: a monitor and a scheduler consume hbnet.Client
// streams from an application in another process over loopback TCP, while
// a raw client proves exactly-once, ordered delivery with exact Missed
// accounting across a forced reconnect (the outage deliberately outruns
// the producer's 256-record ring, so the gap MUST surface as Missed).
func TestProcessBoundaryMonitorAndScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process and streams for seconds")
	}
	addr, stop := startChildServer(t)

	// Raw accounting client goes through a cuttable proxy so the network
	// can fail without the application noticing.
	p := newProxy(t, addr)
	raw, err := Dial(p.addr(), "app", WithReconnectBackoff(5*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	// Monitor — a one-app hub — on its own direct connection.
	mon, err := Dial(addr, "app")
	if err != nil {
		t.Fatal(err)
	}
	var muStatus sync.Mutex
	var statuses []observer.Status
	monitor := observer.NewHub(50*time.Millisecond, func(_ string, st observer.Status) {
		muStatus.Lock()
		statuses = append(statuses, st)
		muStatus.Unlock()
	}, observer.WithHubClassifier(func(string) *observer.Classifier {
		return &observer.Classifier{FlatlineFactor: 50}
	}))
	if err := monitor.Add("app", mon); err != nil {
		t.Fatal(err)
	}
	defer monitor.Remove("app")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); monitor.Run(ctx) }()

	// Scheduler on a third connection, its own hub's judgments actuating a
	// simulated machine from the remote rate signal.
	schedStream, err := Dial(addr, "app")
	if err != nil {
		t.Fatal(err)
	}
	machine := sim.NewMachine(clock.NewVirtual(), 8, 1e6)
	sched, err := scheduler.New(machine, scheduler.StepperPolicy{
		Stepper: &control.Stepper{TargetMin: 50, TargetMax: 5000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var muSample sync.Mutex
	var samples []scheduler.Sample
	schedHub := observer.NewHub(50*time.Millisecond, func(_ string, st observer.Status) {
		s := sched.Step(st)
		muSample.Lock()
		samples = append(samples, s)
		muSample.Unlock()
	})
	if err := schedHub.Add("app", schedStream); err != nil {
		t.Fatal(err)
	}
	defer schedHub.Remove("app")
	wg.Add(1)
	go func() { defer wg.Done(); schedHub.Run(ctx) }()

	// Phase 1: clean streaming.
	recs, missed := collect(t, raw, func(r []heartbeat.Record, _ uint64) bool { return len(r) >= 200 })

	// Phase 2: a sustained outage — live connections severed AND redials
	// refused — long enough for the producer to lap its 256-record ring
	// (500 beats/s for 1.2s ≈ 600 > 256), then restore the network and let
	// the client resume from its cursor.
	p.setPaused(true)
	p.cut()
	time.Sleep(1200 * time.Millisecond)
	p.setPaused(false)
	more, missedMore := collect(t, raw, func(r []heartbeat.Record, _ uint64) bool { return len(r) >= 300 })
	recs = append(recs, more...)
	missed += missedMore
	if raw.Reconnects() < 1 {
		t.Fatalf("no reconnect after cut (reconnects=%d)", raw.Reconnects())
	}
	if missed == 0 {
		t.Fatal("outage outran the ring but nothing was reported Missed")
	}

	// Exactly-once, ordered, and fully accounted: every sequence number up
	// to the newest delivered one was either delivered exactly once or
	// counted in Missed.
	seen := make(map[uint64]bool, len(recs))
	var prev uint64
	for i, r := range recs {
		if r.Seq == 0 {
			t.Fatalf("record %d has no sequence number", i)
		}
		if seen[r.Seq] {
			t.Fatalf("seq %d delivered twice across the reconnect", r.Seq)
		}
		if r.Seq <= prev {
			t.Fatalf("seq %d after %d: out of order", r.Seq, prev)
		}
		seen[r.Seq] = true
		prev = r.Seq
	}
	simcheck.RequireConserved(t, "reconnect-resumed subscription", uint64(len(recs)), missed, prev)
	// Dense wherever nothing was Missed: the gap total equals the Missed
	// total exactly, so with missed subtracted the delivery is gapless.

	// Let the control loops take a few more judgments, then stop the app.
	time.Sleep(300 * time.Millisecond)
	stop()

	// The monitor saw a live, progressing application.
	deadline := time.Now().Add(5 * time.Second)
	for {
		muStatus.Lock()
		n := len(statuses)
		var healthy *observer.Status
		for i := range statuses {
			if statuses[i].RateOK && statuses[i].Count > 0 {
				healthy = &statuses[i]
				break
			}
		}
		muStatus.Unlock()
		if healthy != nil {
			if healthy.TargetMin != 50 || healthy.TargetMax != 5000 {
				t.Fatalf("monitor saw target [%v, %v]", healthy.TargetMin, healthy.TargetMax)
			}
			if healthy.Rate <= 0 {
				t.Fatalf("monitor measured rate %v", healthy.Rate)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("monitor never measured the remote app (%d statuses)", n)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The scheduler decided from the remote signal.
	deadline = time.Now().Add(5 * time.Second)
	for {
		muSample.Lock()
		var decided *scheduler.Sample
		for i := range samples {
			if samples[i].RateOK {
				decided = &samples[i]
				break
			}
		}
		muSample.Unlock()
		if decided != nil {
			if decided.Rate <= 0 || decided.TargetMin != 50 {
				t.Fatalf("scheduler decided from %+v", decided)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scheduler never observed a measurable remote rate")
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	wg.Wait()
}
