package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/internal/check"
	"repro/bench/internal/clock"
	"repro/bench/internal/hist"
	"repro/bench/internal/sut"
)

// beat_hot is the paper's own claim, alone: what a beat costs and how fast
// beats can be issued, with an observer reading beside the writers. Closed
// loop, one producer goroutine per CPU, each beating its own Thread handle
// (Thread.GlobalBeatTag, the sharded path) in chunks of beatChunk. One
// in-process observer wakes every rateEvery, drains its subscription and
// reads Rate() — reads beside writes at the cadence of an external observer,
// not a second spinning consumer competing with the producers for the CPUs.
// No sink, no wire, no relay: heartbeat, internal/ring and the aggregator do
// all the work, and a change to hbnet, observer's rollups or balance must not
// move it. (The direct path under the same contention is a probe of the
// traced run: alternating the two paths inside the measured loop, as first
// designed, let the producers drift in and out of phase on the contended
// path and made the run's throughput bimodal.)
const (
	beatChunk   = 4096
	hotCapacity = 1 << 16
	rateEvery   = 10 * time.Millisecond
)

type beatHot struct {
	*env
	hb    sut.Heartbeat
	obs   *hotObserver
	prods []*hotProducer
	halt  atomic.Bool
	wg    sync.WaitGroup
}

type hotProducer struct {
	id     int
	thread sut.Thread
	next   uint64        // next index to beat
	beats  atomic.Uint64 // beats issued so far, for progress
	chunks hist.Hist     // ns per chunk begun inside the window
}

// hotObserver is the heartbeat's in-process reader.
type hotObserver struct {
	sub       sut.Sub
	order     *check.Order
	seen      atomic.Uint64 // records read so far
	age       hist.Hist     // read time − Record.Time: oldest, middle and newest record of each read
	batchSize hist.Hist
	rate      hist.Hist // duration of one Rate() call under writers
	inside    int64     // ns spent draining during the window
	between   int64     // ns spent outside it
	quit      chan struct{}
	done      chan struct{}
}

func (w *beatHot) build() error {
	hb, err := sut.NewHeartbeat(hotCapacity, nil)
	if err != nil {
		return err
	}
	w.hb = hb
	for p := 0; p < w.procs; p++ {
		w.prods = append(w.prods, &hotProducer{id: p, thread: hb.Thread(fmt.Sprintf("producer-%d", p))})
	}
	w.obs = &hotObserver{sub: hb.Subscribe(), order: check.NewOrder(w.procs), quit: make(chan struct{}), done: make(chan struct{})}
	go w.obs.run(w.env, hb)
	// One chunk per producer faults the rings in and proves the observer
	// receives.
	for _, p := range w.prods {
		p.chunk()
	}
	hb.Flush()
	if !spinFor(5*time.Second, func() bool { return w.obs.seen.Load() > 0 }) {
		return fmt.Errorf("beat_hot: the observer saw nothing within 5s of the first beats")
	}
	return nil
}

// chunk issues beatChunk beats and returns when it began and how long it
// took. The seed has nothing to vary here: tags are the schedule.
func (p *hotProducer) chunk() (start, took int64) {
	idx := p.next
	start = clock.Nanos()
	for i := 0; i < beatChunk; i++ {
		p.thread.Beat(check.Tag(p.id, idx))
		idx++
	}
	took = clock.Nanos() - start
	p.next = idx
	p.beats.Add(beatChunk)
	return start, took
}

func (w *beatHot) start() {
	for _, p := range w.prods {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			for !w.halt.Load() {
				start, took := p.chunk()
				if w.win.in(start) {
					p.chunks.Record(took)
				}
				w.tr.Add("heartbeat.beat_chunk", start, start+took, "", "")
			}
		}()
	}
}

func (o *hotObserver) run(e *env, hb sut.Heartbeat) {
	defer close(o.done)
	buf := make([]sut.Record, 0, hotCapacity)
	left := clock.Nanos()
	for last := false; !last; {
		select {
		case <-o.quit:
			last = true // the producers have stopped: drain what is left and go
		default:
			clock.Sleep(rateEvery)
		}
		entered := clock.Nanos()
		measured := e.win.in(entered)
		// One read per wake-up while the producers run: they never pause, so
		// "until nothing is new" would never come. The last pass, after they
		// have stopped, reads until the history is exhausted.
		for {
			recs, ok := o.sub.Poll(buf)
			if !ok {
				break
			}
			now := clock.Nanos()
			for i := range recs {
				o.order.Observe(recs[i].Tag)
			}
			o.seen.Add(uint64(len(recs)))
			if n := len(recs); n > 0 && measured {
				for _, r := range []sut.Record{recs[0], recs[n/2], recs[n-1]} {
					o.age.Record(now - r.Time.UnixNano())
				}
				o.batchSize.Record(int64(n))
			}
			buf = recs[:0]
			if !last {
				break
			}
		}
		drained := clock.Nanos()
		hb.Rate()
		after := clock.Nanos()
		if measured {
			o.inside += drained - entered
			o.between += entered - left
			o.rate.Record(after - drained)
		}
		e.tr.Add("heartbeat.next", entered, drained, "", "")
		e.tr.Add("heartbeat.rate", drained, after, "", "")
		left = drained
	}
}

func (w *beatHot) stop() (attempted, failed uint64, err error) {
	w.halt.Store(true)
	w.wg.Wait()
	w.hb.Flush()
	close(w.obs.quit)
	<-w.obs.done
	published := make([]uint64, w.procs)
	for _, p := range w.prods {
		published[p.id] = p.next
		attempted += p.next
	}
	// A tight-loop producer lapping its observer is counted loss by design;
	// what must never happen is a record neither delivered nor counted.
	if err := w.obs.order.Conserved(published, w.obs.sub.Missed()); err != nil {
		return 0, 0, fmt.Errorf("beat_hot: %w", err)
	}
	return attempted, 0, nil
}

func (w *beatHot) close() {
	w.halt.Store(true)
	w.wg.Wait()
	if o := w.obs; o != nil {
		select {
		case <-o.quit:
		default:
			close(o.quit)
		}
		<-o.done
		o.sub.Close()
		w.hb.Close()
	}
}

func (w *beatHot) progress() (published, done uint64) {
	for _, p := range w.prods {
		published += p.beats.Load()
	}
	return published, published
}

func (w *beatHot) chunks() (all hist.Hist) {
	for _, p := range w.prods {
		all.Merge(&p.chunks)
	}
	return all
}

func (w *beatHot) report(res *Result) {
	chunks, o := w.chunks(), w.obs
	res.set("beat_ns_p50", "ns", perOp(&chunks, 0.5, beatChunk), chunks.Count())
	res.set("deliver_p50_us", "us", o.age.Quantile(0.5)/1e3, o.age.Count())
	_, tail := o.age.Tail(0.99)
	res.set("pipeline.deliver_p99_us", "us", tail/1e3, o.age.Count())
}

func (w *beatHot) reportLayers(res *Result) {
	chunks, o := w.chunks(), w.obs
	_, p99 := chunks.Tail(0.99)
	res.set("heartbeat.beat_ns_p99", "ns", p99/beatChunk, chunks.Count())
	res.set("heartbeat.next_busy_frac", "ratio", frac(float64(o.inside), float64(o.inside+o.between)), o.batchSize.Count())
	res.set("heartbeat.next_batch_p50", "count", o.batchSize.Quantile(0.5), o.batchSize.Count())
	res.set("heartbeat.lapped_frac", "ratio", frac(float64(o.sub.Missed()), float64(res.Attempted)), res.Attempted)
	res.set("heartbeat.rate_ns", "ns", o.rate.Quantile(0.5), o.rate.Count())
	res.set("hbnet.spans", "count", float64(w.tr.Count("hbnet")), 1)
}
