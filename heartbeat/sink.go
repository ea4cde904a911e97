package heartbeat

// Sink receives every global record as it is produced. Sinks expose the
// heartbeat to the world outside the process — the paper's reference
// implementation writes each heartbeat to a file that external services
// read; package hbfile provides that sink. WriteRecord is called
// synchronously from Beat, potentially from many goroutines at once, so
// implementations must be concurrency-safe and should be fast.
//
// Delivery happens while the aggregator lock is held, so a sink must not
// call back into the originating Heartbeat: Beat and Flush from inside a
// sink deadlock (or recurse, on the no-backlog fast path). Count, Rate,
// and History are tolerated — they fall back to a lock-free estimate or
// the pre-merge history — but the right design is for a sink to hand
// records off, not to re-enter.
type Sink interface {
	WriteRecord(Record) error
}

// TargetSink is implemented by sinks that can also publish the target
// heart-rate range to external observers (the reference implementation
// writes targets into the same file as the heartbeats).
type TargetSink interface {
	Sink
	WriteTarget(min, max float64) error
}

// BatchSink is implemented by sinks that can accept an ordered batch of
// records in one call. The aggregator delivers each shard merge through
// WriteRecords when the sink supports it, amortizing per-record overhead
// (hbfile.Writer, for example, takes its lock and advances its cursor once
// per batch and issues one write per contiguous ring segment, not per
// record; hbfile.LogWriter appends the batch in one write). Sinks that
// don't implement BatchSink receive the same records through WriteRecord,
// one call each, in the same order.
//
// The slice is the aggregator's reusable scratch buffer: it is only valid
// for the duration of the call. A sink that wants to keep the records must
// copy them before returning.
type BatchSink interface {
	Sink
	WriteRecords([]Record) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Record) error

// WriteRecord implements Sink.
func (f SinkFunc) WriteRecord(r Record) error { return f(r) }

// MultiSink fans records out to several sinks, returning the first error.
func MultiSink(sinks ...Sink) Sink { return multiSink(sinks) }

type multiSink []Sink

func (m multiSink) WriteRecord(r Record) error {
	var first error
	for _, s := range m {
		if err := s.WriteRecord(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WriteRecords fans a batch out to every sink, using each sink's batch
// entry point when it has one. It returns the first error but still
// attempts every sink.
func (m multiSink) WriteRecords(recs []Record) error {
	var first error
	for _, s := range m {
		if bs, ok := s.(BatchSink); ok {
			if err := bs.WriteRecords(recs); err != nil && first == nil {
				first = err
			}
			continue
		}
		for _, r := range recs {
			if err := s.WriteRecord(r); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

func (m multiSink) WriteTarget(min, max float64) error {
	var first error
	for _, s := range m {
		if ts, ok := s.(TargetSink); ok {
			if err := ts.WriteTarget(min, max); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
