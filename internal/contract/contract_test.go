// Package contract is the executable form of the delivery contract
// (ARCHITECTURE.md, "The delivery contract, in one place", rules 1–5): one
// set of cases that every medium carrying a heartbeat history passes — the
// in-process subscription, the hbfile ring and log, hbshm, a dialed
// hbnet.Client and a relay's merged feed — in the manner of
// testing/fstest.TestFS. Every delivery goes through simcheck.Tracker, so
// a case fails on any duplicate, reordering or unaccounted gap, not only
// on the numbers it names. The package holds tests only.
package contract

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/hbnet"
	"repro/heartbeat"
	"repro/internal/cursor"
	"repro/internal/simcheck"
	"repro/observer"
)

// expired is an already-cancelled context: Next(expired) is the
// non-blocking drain of rule 5.
var expired = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// patience bounds every wait for a delivery; only a broken backend
// reaches it.
const patience = 10 * time.Second

// stream is a stream under test with the tracker that audits it.
type stream struct {
	t  *testing.T
	s  observer.Stream
	tr *simcheck.Tracker
}

func open(t *testing.T, m *medium, since uint64) *stream {
	return &stream{t, m.open(since), simcheck.NewTracker(t.Name(), since)}
}

// absorb audits one batch and hands its records back to a stream that
// recycles them, as every production consumer does.
func (st *stream) absorb(b observer.Batch) {
	st.t.Helper()
	if err := st.tr.Absorb(b); err != nil {
		st.t.Fatal(err)
	}
	if r, ok := st.s.(interface{ Recycle(observer.Batch) }); ok {
		r.Recycle(b)
	}
}

// drain absorbs batches until the stream has consumed up to head, and
// returns the last batch. It waits for deliveries (a network stream's
// arrive on their own), but pending records come back without one.
func (st *stream) drain(head uint64) observer.Batch {
	st.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), patience)
	defer cancel()
	for {
		b, err := st.s.Next(ctx)
		if err != nil {
			st.t.Fatalf("Next at cursor %d, draining to %d: %v", st.tr.Cursor(), head, err)
		}
		st.absorb(b)
		if st.tr.Cursor() == head {
			return b
		}
	}
}

// idle checks that everything published was delivered: a non-blocking
// Next finds nothing and reports the context's error.
func (st *stream) idle() {
	st.t.Helper()
	if b, err := st.s.Next(expired); !errors.Is(err, context.Canceled) {
		st.t.Fatalf("Next on a drained stream = %d records (Missed %d), err %v; want context.Canceled",
			len(b.Records), b.Missed, err)
	}
}

// counts checks the tracker's totals, and that a stream which keeps its
// own cursor or loss count (hbnet.Client) agrees with it.
func (st *stream) counts(delivered, missed uint64, lives int) {
	st.t.Helper()
	if got := st.tr.Delivered(); got != delivered {
		st.t.Errorf("delivered %d records, want %d", got, delivered)
	}
	if got := st.tr.Missed(); got != missed {
		st.t.Errorf("missed %d records, want %d", got, missed)
	}
	if err := st.tr.CheckLives(lives); err != nil {
		st.t.Error(err)
	}
	if c, ok := st.s.(hbnet.CursorSource); ok && c.Cursor() != st.tr.Cursor() {
		st.t.Errorf("stream Cursor() = %d, tracker at %d", c.Cursor(), st.tr.Cursor())
	}
	if m, ok := st.s.(interface{ Missed() uint64 }); ok && m.Missed() != st.tr.Missed() {
		st.t.Errorf("stream Missed() = %d, tracker counted %d", m.Missed(), st.tr.Missed())
	}
}

// contractCase is one part of the contract; need, when set, is the
// capability a backend must have for the case to apply.
type contractCase struct {
	name string
	need func(backend) bool
	run  func(t *testing.T, b backend, m *medium)
}

// runCases runs every case on a fresh medium of every backend, skipping
// the cases a backend lacks the capability (or, polled, the level) for.
func runCases(t *testing.T, cases []contractCase, polled bool) {
	for _, b := range backends {
		b := b
		t.Run(b.name, func(t *testing.T) {
			for _, c := range cases {
				c := c
				t.Run(c.name, func(t *testing.T) {
					if c.need != nil && !c.need(b) {
						t.Skipf("%s lacks the capability", b.name)
					}
					m := b.start(t)
					if polled && m.polled == nil {
						t.Skipf("%s has no PolledReader", b.name)
					}
					c.run(t, b, m)
				})
			}
		})
	}
}

func TestStream(t *testing.T) { runCases(t, streamCases, false) }

func TestPolledReader(t *testing.T) { runCases(t, readerCases, true) }

// streamCases are the contract at the Stream level, which every backend
// offers.
var streamCases = []contractCase{
	// Rule 1: a backlog and then deltas arrive, each record once and in
	// order.
	{"backlog-then-deltas", nil, func(t *testing.T, b backend, m *medium) {
		m.publish(5)
		st := open(t, m, 0)
		st.drain(5)
		m.publish(3)
		st.drain(8)
		st.idle()
		st.counts(8, 0, 1)
	}},
	// Rule 2: resuming at cursor c delivers exactly the records after c.
	{"resume-at-cursor", nil, func(t *testing.T, b backend, m *medium) {
		m.publish(8)
		st := open(t, m, 5)
		if first := st.drain(8); first.Records[0].Seq != 6 {
			t.Fatalf("resumed at 5, first record is seq %d", first.Records[0].Seq)
		}
		st.idle()
		st.counts(3, 0, 1)
	}},
	// Rule 3: records lapped before delivery are counted, never silent —
	// in a backlog, and in deltas that outrun an attached reader.
	{"lapped-counted", func(b backend) bool { return b.laps }, func(t *testing.T, b backend, m *medium) {
		m.publish(40)
		st := open(t, m, 0)
		st.drain(40)
		st.counts(uint64(b.lapped), 40-uint64(b.lapped), 1)
		m.publish(40)
		st.drain(80)
		st.idle()
		if err := st.tr.CheckConserved(80); err != nil {
			t.Fatal(err)
		}
		st.counts(st.tr.Delivered(), 80-st.tr.Delivered(), 1)
		// A relay sheds what its own ring lapped: here, every missed record.
		if sc, ok := st.s.(hbnet.ShedCounter); ok && sc.Shed() != st.tr.Missed() {
			t.Fatalf("shed %d, want every missed record (%d)", sc.Shed(), st.tr.Missed())
		}
	}},
	// Rule 4: a cursor ahead of head (a previous life of the producer)
	// resynchronizes and redelivers the retained records, with nothing
	// counted Missed; a reconnect afterwards resumes from the new life's
	// cursor, without a second resync.
	{"future-cursor-resyncs", nil, func(t *testing.T, b backend, m *medium) {
		m.publish(5)
		st := open(t, m, 1000)
		st.drain(5)
		st.counts(5, 0, 2)
		if m.cut == nil {
			return
		}
		m.cut()
		m.publish(3)
		st.drain(8)
		st.idle()
		st.counts(8, 0, 2)
	}},
	// Rule 4, across a restart: the producer begins a new life under the
	// same name, path or feed with its head below the stream's cursor; the
	// stream resyncs to the new life's zero and delivers it, the gap
	// between lives counted nowhere.
	{"restart-below-cursor-resyncs", func(b backend) bool { return b.restarts }, func(t *testing.T, b backend, m *medium) {
		m.publish(8)
		st := open(t, m, 0)
		st.drain(8)
		m.restart()
		m.publish(3)
		if first := st.drain(3); first.Records[0].Seq != 1 {
			t.Fatalf("resynced to the new life, first record is seq %d", first.Records[0].Seq)
		}
		st.idle()
		st.counts(11, 0, 2)
		if m.polled == nil || !b.laps {
			return
		}
		// A medium addressed by sequence number can begin a life whose
		// first read finds no readable record: its first positions were
		// never written (a bridge passing an upstream loss through), and
		// a one-position read covers only them. The read still resyncs,
		// counting what it covered Missed from the new life's zero.
		m.restart()
		m.polled.write(seqs(2, 2))
		tr := simcheck.NewTracker(t.Name(), st.tr.Cursor())
		if recs, head := read(t, tr, m.polled.r, 1, nil); len(recs) != 0 || head != 1 {
			t.Fatalf("first read of the new life: %d records up to %d, want none up to 1", len(recs), head)
		}
		read(t, tr, m.polled.r, 1, nil)
		if lives := tr.Lives(); len(lives) != 2 || lives[1] != (simcheck.Life{Delivered: 1, Missed: 1, Head: 2}) {
			t.Fatalf("lives %+v, want the new one at head 2 with 1 delivered and 1 missed", lives)
		}
	}},
	// Rule 5: under an expired context Next drains pending records and
	// reports the context's error only when idle; a blocked Next returns
	// when its context is cancelled.
	{"context", nil, func(t *testing.T, b backend, m *medium) {
		m.publish(5)
		st := open(t, m, 0)
		deadline := time.Now().Add(patience)
		for st.tr.Cursor() != 5 {
			bt, err := st.s.Next(expired)
			switch {
			case err == nil:
				st.absorb(bt)
			case !errors.Is(err, context.Canceled):
				t.Fatalf("Next(expired) at cursor %d: %v", st.tr.Cursor(), err)
			case !b.async:
				t.Fatalf("Next(expired) reported %v with records 1..5 pending at cursor %d", err, st.tr.Cursor())
			case time.Now().After(deadline):
				t.Fatalf("records never arrived: cursor %d", st.tr.Cursor())
			default:
				runtime.Gosched() // the stream's own goroutine is still receiving
			}
		}
		st.idle()

		ctx, cancel := context.WithCancel(context.Background())
		wc := &waitCtx{Context: ctx, waiting: make(chan struct{})}
		got := make(chan error, 1)
		go func() {
			_, err := st.s.Next(wc)
			got <- err
		}()
		select {
		case <-wc.waiting:
		case <-time.After(patience):
			t.Fatal("an idle Next never waited on its context")
		}
		cancel()
		select {
		case err := <-got:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Next err = %v, want context.Canceled", err)
			}
		case <-time.After(patience):
			t.Fatal("a blocked Next ignored its cancelled context")
		}
		st.counts(5, 0, 1)
	}},
	// Rule 5, the end: once the producer ends, Next drains what was
	// published and then reports io.EOF, on every further call too.
	{"drain-then-eof", func(b backend) bool { return b.ends }, func(t *testing.T, b backend, m *medium) {
		m.publish(5)
		st := open(t, m, 0)
		m.end()
		st.drain(5)
		for i := 0; i < 2; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), patience)
			_, err := st.s.Next(ctx)
			cancel()
			if !errors.Is(err, io.EOF) {
				t.Fatalf("Next after the drain = %v, want io.EOF", err)
			}
		}
		st.counts(5, 0, 1)
	}},
	// Every batch carries where its reader stands as Count — the
	// producer's head once drained — and, for a single application, its
	// Window and Target.
	{"count-window-target", nil, func(t *testing.T, b backend, m *medium) {
		m.publish(5)
		st := open(t, m, 0)
		last := st.drain(5)
		if last.Count != 5 {
			t.Errorf("Count = %d, want the head 5", last.Count)
		}
		if b.goal && (last.Window != window || !last.TargetSet || last.TargetMin != goalMin || last.TargetMax != goalMax) {
			t.Errorf("window %d, target [%v, %v] set %v; want %d, [%v, %v] set",
				last.Window, last.TargetMin, last.TargetMax, last.TargetSet, window, goalMin, goalMax)
		}
	}},
}

// waitCtx reports, by closing waiting, that a Next has asked for its
// Done channel: the Next is about to block on it.
type waitCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// read is one reader-level read, fed to the tracker as the batch a
// polled stream would deliver: the span the read passed over is Missed,
// and a head below the cursor resyncs and reads again from zero.
func read(t *testing.T, tr *simcheck.Tracker, r observer.PolledReader, max int, buf []heartbeat.Record) ([]heartbeat.Record, uint64) {
	t.Helper()
	since := tr.Cursor()
	for {
		recs, head, err := r.ReadSinceInto(since, max, buf)
		if err != nil {
			t.Fatalf("ReadSinceInto(%d, %d): %v", since, max, err)
		}
		next, missed, move := cursor.Advance(since, head, len(recs))
		if move == cursor.Resync {
			since = next
			continue
		}
		if err := tr.Absorb(observer.Batch{Records: recs, Count: next, Missed: missed}); err != nil {
			t.Fatal(err)
		}
		return recs, head
	}
}

// readerCases are the contract at the PolledReader level (hbfile.Reader,
// hbfile.LogReader, hbshm.Reader).
var readerCases = []contractCase{
	// max bounds every batch, the cursor stops at the last record
	// returned, and a buffer with room is reused — through a backlog the
	// producer has lapped, where the medium laps.
	{"pages-by-max", nil, func(t *testing.T, b backend, m *medium) {
		published := uint64(10)
		if b.laps {
			published = 40
		}
		m.publish(int(published))
		tr := simcheck.NewTracker(t.Name(), 0)
		buf := make([]heartbeat.Record, 0, 3)
		for tr.Cursor() != published {
			recs, head := read(t, tr, m.polled.r, 3, buf)
			if len(recs) > 3 {
				t.Fatalf("max 3 returned %d records", len(recs))
			}
			if len(recs) > 0 && (recs[len(recs)-1].Seq != head || &recs[0] != &buf[:1][0]) {
				t.Fatalf("page ends at seq %d with cursor %d (buffer reused: %v)",
					recs[len(recs)-1].Seq, head, &recs[0] == &buf[:1][0])
			}
		}
		if err := tr.CheckConserved(published); err != nil {
			t.Fatal(err)
		}
		if !b.laps && tr.Missed() != 0 {
			t.Fatalf("an unlapped medium missed %d records", tr.Missed())
		}
	}},
	// A sequence number the publisher never wrote (a bridge passing an
	// upstream loss through) is counted Missed, where the medium is
	// addressed by sequence number: the rings. The log is addressed by
	// position, and its writers append every record.
	{"publisher-gap-counted", func(b backend) bool { return b.laps }, func(t *testing.T, b backend, m *medium) {
		m.polled.write(seqs(1, 3))
		m.polled.write(seqs(6, 8))
		tr := simcheck.NewTracker(t.Name(), 0)
		for tr.Cursor() != 8 {
			read(t, tr, m.polled.r, 0, nil)
		}
		if tr.Delivered() != 6 || tr.Missed() != 2 {
			t.Fatalf("delivered %d, missed %d; want 6 and the 2 never written", tr.Delivered(), tr.Missed())
		}
	}},
	// A target version word left odd (a writer that died mid-update) is a
	// bounded error, not a reader spinning forever; the polled stream
	// reports it with its cursor in place and delivers once the word
	// settles.
	{"torn-target", nil, func(t *testing.T, b backend, m *medium) {
		m.publish(3)
		s := m.open(0)
		m.polled.tear(3)
		done := make(chan error, 1)
		go func() {
			_, _, _, err := m.polled.r.Target()
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("Target over an odd version word succeeded")
			}
		case <-time.After(patience):
			t.Fatal("Target still spinning on an odd version word")
		}
		if _, err := s.Next(expired); err == nil || errors.Is(err, context.Canceled) {
			t.Fatalf("Next over a torn target = %v, want the target error", err)
		}
		m.polled.tear(4)
		st := &stream{t, s, simcheck.NewTracker(t.Name(), 0)}
		st.drain(3)
		st.counts(3, 0, 1)
	}},
}
