package repro

// Stream fan-out stress: one live producer, several concurrent streaming
// consumers of different kinds, all under -race. The raw subscriber
// asserts the core streaming contract — every global sequence number is
// delivered exactly once, in order, across a mid-stream resubscribe —
// while a one-app Hub and a hub driving a CoreScheduler consume the same
// heartbeat through their own independent cursors.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/control"
	"repro/heartbeat"
	"repro/internal/simcheck"
	"repro/observer"
	"repro/scheduler"
)

// stressMachine is a trivial CoreMachine actuator for the scheduler
// consumer; allocations are irrelevant to the streaming contract.
type stressMachine struct{ cores atomic.Int32 }

func (m *stressMachine) SetCores(n int) int {
	if n < 1 {
		n = 1
	}
	if n > 8 {
		n = 8
	}
	m.cores.Store(int32(n))
	return n
}
func (m *stressMachine) Cores() int {
	if c := m.cores.Load(); c >= 1 {
		return int(c)
	}
	return 1
}

func (m *stressMachine) MaxCores() int { return 8 }

func TestStreamFanoutNoLossNoDupAcrossResubscribe(t *testing.T) {
	const beats = 30000
	hb, err := heartbeat.New(20,
		heartbeat.WithCapacity(1<<16), // covers the full run: no overwrite, so loss = a real bug
		heartbeat.WithFlushInterval(200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	if err := hb.SetTarget(1, 1e9); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Consumer 1: a one-app Hub judging through its own stream.
	var statuses atomic.Int64
	mctx, mcancel := context.WithCancel(ctx)
	defer mcancel()
	monitorDone := make(chan struct{})
	monitor := observer.NewHub(time.Millisecond, func(string, observer.Status) {
		statuses.Add(1)
	})
	if err := monitor.Add("app", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	defer monitor.Remove("app")
	go func() {
		defer close(monitorDone)
		monitor.Run(mctx)
	}()

	// Consumer 2: a CoreScheduler deciding from its own hub's judgments.
	var samples atomic.Int64
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	sched, err := scheduler.New(&stressMachine{},
		scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: 1, TargetMax: 1e9}})
	if err != nil {
		t.Fatal(err)
	}
	schedHub := observer.NewHub(time.Millisecond, func(_ string, st observer.Status) {
		sched.Step(st)
		samples.Add(1)
	}, observer.WithHubClassifier(func(string) *observer.Classifier {
		return &observer.Classifier{Window: 20}
	}))
	if err := schedHub.Add("app", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	defer schedHub.Remove("app")
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		schedHub.Run(sctx)
	}()

	// Producer: a single Thread beating through its lock-free shard.
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		tr := hb.Thread("producer")
		for i := 0; i < beats; i++ {
			tr.GlobalBeatTag(int64(i))
		}
		hb.Flush()
	}()

	// Consumer 3: the raw subscriber asserting exactly-once delivery —
	// through the shared simcheck contract checker, the same code the
	// simulated scenario matrix runs — with one resubscribe (Close +
	// SubscribeFrom at the saved cursor) halfway. The ring covers the full
	// run, so any batch reporting a gap (or a duplicate) is a violation.
	sub := hb.Subscribe(ctx)
	defer func() { sub.Close() }()
	tracker := simcheck.NewTracker("raw subscriber", 0)
	var resubscribed bool
	for tracker.Cursor() < beats {
		recs, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("consumed %d records, then: %v", tracker.Delivered(), err)
		}
		if err := tracker.Absorb(observer.Batch{Records: recs}); err != nil {
			t.Fatal(err)
		}
		if !resubscribed && tracker.Cursor() > beats/2 {
			cur := sub.Cursor()
			sub.Close()
			sub = hb.SubscribeFrom(ctx, cur)
			resubscribed = true
		}
	}
	if !resubscribed {
		t.Fatal("resubscribe never exercised")
	}
	if sub.Missed() != 0 {
		t.Fatalf("subscriber missed %d records", sub.Missed())
	}
	if err := tracker.CheckLives(1); err != nil {
		t.Fatal(err)
	}
	if err := tracker.CheckConserved(beats); err != nil {
		t.Fatal(err)
	}

	<-producerDone
	// Total accounting: every beat is in the history, none duplicated.
	if got := hb.Count(); got != beats {
		t.Fatalf("Count = %d, want %d", got, beats)
	}
	mcancel()
	scancel()
	<-monitorDone
	<-schedDone
	if statuses.Load() == 0 {
		t.Fatal("monitor consumer delivered no statuses")
	}
	if samples.Load() == 0 {
		t.Fatal("scheduler consumer delivered no samples")
	}
}
