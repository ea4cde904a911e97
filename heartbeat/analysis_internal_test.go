package heartbeat

import (
	"testing"
	"testing/quick"
	"time"
)

// funcClock adapts a function to clock.Clock.
type funcClock func() time.Time

func (f funcClock) Now() time.Time { return f() }

// steppedHB returns a heartbeat stamped by a clock that only the returned
// advance function moves.
func steppedHB(t *testing.T, window int) (*Heartbeat, func(time.Duration)) {
	t.Helper()
	now := time.Unix(0, 0)
	hb, err := New(window, WithClock(funcClock(func() time.Time { return now })))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return hb, func(d time.Duration) { now = now.Add(d) }
}

func TestFilterTag(t *testing.T) {
	hb, advance := steppedHB(t, 10)
	// Simulate a video encoder tagging frame types: I=1, P=2, B=3.
	pattern := []int64{1, 2, 3, 3, 2, 3, 3, 1, 2, 3}
	for _, tag := range pattern {
		advance(100 * time.Millisecond)
		hb.BeatTag(tag)
	}
	recs := hb.History(10)
	iframes := filterTag(recs, 1)
	if len(iframes) != 2 || iframes[0].Seq != 1 || iframes[1].Seq != 8 {
		t.Fatalf("filterTag(1) = %+v", iframes)
	}
	if got := filterTag(recs, 99); got != nil {
		t.Fatalf("filterTag(99) = %v", got)
	}
}

func TestFilterProducer(t *testing.T) {
	hb, advance := steppedHB(t, 10)
	t1 := hb.Thread("a")
	t2 := hb.Thread("b")
	advance(time.Millisecond)
	t1.GlobalBeat()
	t2.GlobalBeat()
	hb.Beat()
	t1.GlobalBeat()
	recs := hb.History(10)
	if got := filterProducer(recs, t1.ID()); len(got) != 2 {
		t.Fatalf("producer %d records = %+v", t1.ID(), got)
	}
	if got := filterProducer(recs, 0); len(got) != 1 {
		t.Fatalf("direct records = %+v", got)
	}
}

// Property: filterTag partitions the history — every record appears in
// exactly the filter of its own tag, and concatenating filters over the
// distinct tags preserves the total count.
func TestFilterTagPartitionProperty(t *testing.T) {
	f := func(tagChoices []uint8) bool {
		if len(tagChoices) == 0 {
			return true
		}
		hb, err := New(10, WithCapacity(512))
		if err != nil {
			return false
		}
		for _, c := range tagChoices {
			hb.BeatTag(int64(c % 4))
		}
		recs := hb.History(512)
		total := 0
		for tag := int64(0); tag < 4; tag++ {
			sub := filterTag(recs, tag)
			total += len(sub)
			for _, r := range sub {
				if r.Tag != tag {
					return false
				}
			}
		}
		return total == len(recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
