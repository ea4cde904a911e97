package hbnet

import (
	"testing"

	"repro/heartbeat"
	"repro/observer"
)

// seqs builds records carrying just the given sequence numbers.
func seqs(ss ...uint64) []heartbeat.Record {
	recs := make([]heartbeat.Record, len(ss))
	for i, s := range ss {
		recs[i].Seq = s
	}
	return recs
}

// TestAdvanceCursor pins the resume cursor across one hop, batch shape by
// batch shape: the server frames each batch whole at the cursor its stream
// reports (Count), and the client hands it out with that cursor — also
// where the records alone would suggest another one: a loss that trails
// the newest record, a resync to a restarted producer, records with no
// sequence numbers. The cursor is never worked out again from the Seqs.
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
			batch:  observer.Batch{Count: 5},
			want:   5,
		},
		{
			name:   "dense records advance to last seq",
			cursor: 10,
			batch:  observer.Batch{Records: seqs(11, 12, 13, 14, 15), Count: 15},
			want:   15,
		},
		{
			name:   "missed only, no records retained",
			cursor: 10,
			batch:  observer.Batch{Missed: 5, Count: 15},
			want:   15,
		},
		{
			name:   "leading missed already inside the span",
			cursor: 10,
			batch:  observer.Batch{Records: seqs(15, 16, 17), Missed: 4, Count: 17},
			want:   17,
		},
		{
			name:   "trailing missed advances past last seq",
			cursor: 10,
			batch:  observer.Batch{Records: seqs(11, 12, 13), Missed: 2, Count: 15},
			want:   15,
		},
		{
			name:   "lap between newest record and head",
			cursor: 0,
			batch:  observer.Batch{Records: seqs(1, 2, 3, 4), Missed: 6, Count: 10},
			want:   10,
		},
		{
			name:   "resync-down follows restarted producer",
			cursor: 100,
			batch:  observer.Batch{Records: seqs(1, 2, 3), Count: 3},
			want:   3,
		},
		{
			name:   "resync-down keeps missed inside the new span",
			cursor: 100,
			batch:  observer.Batch{Records: seqs(2, 3), Missed: 1, Count: 3},
			want:   3,
		},
		{
			name:   "resync-down advances past a lost tail",
			cursor: 100,
			batch:  observer.Batch{Records: seqs(1, 2, 3), Missed: 50, Count: 53},
			want:   53,
		},
		{
			name:   "zero-seq foreign stream counts deliveries",
			cursor: 7,
			batch:  observer.Batch{Records: seqs(0, 0, 0), Missed: 2, Count: 12},
			want:   12,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := &serverCore{name: "app", cursor: tc.cursor}
			payload, err := sc.batchFrame(nil, tc.batch)
			if err != nil {
				t.Fatalf("batchFrame: %v", err)
			}
			c := newTestClient("app", tc.cursor, 1)
			nb, err := c.core.frame(payload[0], payload[1:], nil)
			if err != nil {
				t.Fatalf("frame: %v", err)
			}
			c.deliver(nb)
			if nb.b.Count != tc.want || c.Cursor() != tc.want || c.core.wire != tc.want {
				t.Fatalf("from cursor %d, %d recs, %d missed: delivered Count %d, Cursor %d, wire %d; want %d",
					tc.cursor, len(tc.batch.Records), tc.batch.Missed, nb.b.Count, c.Cursor(), c.core.wire, tc.want)
			}
			if len(nb.b.Records) != len(tc.batch.Records) || nb.b.Missed != tc.batch.Missed || c.Missed() != tc.batch.Missed {
				t.Fatalf("delivered %d records, %d missed; want %d, %d",
					len(nb.b.Records), nb.b.Missed, len(tc.batch.Records), tc.batch.Missed)
			}
		})
	}
}
