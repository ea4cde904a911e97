package hbshm

import (
	"context"
	"errors"
	"io"

	"repro/heartbeat"
	"repro/observer"
)

// Export bridges a live Heartbeat into a shared-memory region in batches:
// it subscribes to hb and copies every delivery into w, the way hbnet's
// server bridges a heartbeat onto the wire. Compared with attaching the
// Writer directly via heartbeat.WithSink — which writes each direct beat
// into the mapping synchronously — Export keeps the beat hot path
// untouched and amortizes the region lock over whole batches, at the cost
// of one bridging goroutine's worth of delivery latency.
//
// Export runs until the heartbeat closes (it then closes w, so observers
// drain and see stream end) or ctx is cancelled (w is left open for the
// caller). Records the subscription itself loses surface to observers as
// sequence gaps, which readers account as missed — loss stays loss across
// the bridge, never silence.
//
//hbvet:api -- user need: bridge a heartbeat into shared memory off the beat hot path, the alternative to WithSink
func Export(ctx context.Context, hb *heartbeat.Heartbeat, w *Writer) error {
	s := observer.HeartbeatStream(hb)
	var tmin, tmax float64
	var tset bool
	for {
		b, err := s.Next(ctx)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return w.Close()
			}
			return err
		}
		if b.TargetSet && (!tset || b.TargetMin != tmin || b.TargetMax != tmax) {
			if err := w.WriteTarget(b.TargetMin, b.TargetMax); err != nil {
				return err
			}
			tset, tmin, tmax = true, b.TargetMin, b.TargetMax
		}
		if err := w.WriteRecords(b.Records); err != nil {
			return err
		}
		// Same structural contract as hbnet.BatchRecycler, matched
		// structurally so the two transports stay independent.
		if rec, ok := s.(interface{ Recycle(observer.Batch) }); ok {
			rec.Recycle(b)
		}
	}
}
