package hbnet

import (
	"testing"

	"repro/heartbeat"
	"repro/observer"
)

// seqs builds records carrying just the sequence numbers advanceCursor
// looks at.
func seqs(ss ...uint64) []heartbeat.Record {
	recs := make([]heartbeat.Record, len(ss))
	for i, s := range ss {
		recs[i].Seq = s
	}
	return recs
}

// TestAdvanceCursor pins the resume-cursor arithmetic case by case. The
// trailing-Missed rows are the regression guard: a ring that lapped
// between its newest retained record and its head accounts for more
// positions than the cursor-to-last-Seq span, and a cursor left at the
// last Seq would re-report that loss to the subscriber on every resume.
func TestAdvanceCursor(t *testing.T) {
	cases := []struct {
		name   string
		cursor uint64
		batch  observer.Batch
		want   uint64
	}{
		{
			name:   "empty batch holds position",
			cursor: 5,
			batch:  observer.Batch{},
			want:   5,
		},
		{
			name:   "dense records advance to last seq",
			cursor: 10,
			batch:  observer.Batch{Records: seqs(11, 12, 13, 14, 15)},
			want:   15,
		},
		{
			name:   "missed only, no records retained",
			cursor: 10,
			batch:  observer.Batch{Missed: 5},
			want:   15,
		},
		{
			name:   "leading missed already inside the span",
			cursor: 10,
			batch:  observer.Batch{Records: seqs(15, 16, 17), Missed: 4},
			want:   17,
		},
		{
			name:   "trailing missed advances past last seq",
			cursor: 10,
			batch:  observer.Batch{Records: seqs(11, 12, 13), Missed: 2},
			want:   15,
		},
		{
			name:   "lap between newest record and head",
			cursor: 0,
			batch:  observer.Batch{Records: seqs(1, 2, 3, 4), Missed: 6},
			want:   10,
		},
		{
			name:   "resync-down follows restarted producer",
			cursor: 100,
			batch:  observer.Batch{Records: seqs(1, 2, 3)},
			want:   3,
		},
		{
			name:   "resync-down keeps missed inside the new span",
			cursor: 100,
			batch:  observer.Batch{Records: seqs(2, 3), Missed: 1},
			want:   3,
		},
		{
			name:   "resync-down advances past a lost tail",
			cursor: 100,
			batch:  observer.Batch{Records: seqs(1, 2, 3), Missed: 50},
			want:   53,
		},
		{
			name:   "zero-seq foreign stream counts deliveries",
			cursor: 7,
			batch:  observer.Batch{Records: seqs(0, 0, 0), Missed: 2},
			want:   12,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := advanceCursor(tc.cursor, tc.batch); got != tc.want {
				t.Fatalf("advanceCursor(%d, %d recs, %d missed) = %d, want %d",
					tc.cursor, len(tc.batch.Records), tc.batch.Missed, got, tc.want)
			}
		})
	}
}
