// Command hbmon watches a heartbeat ring or log file — or a remote hbnet
// feed — and reports the observed application's heart rate, goals, and
// health: the system-administration use of §2.3 (detect hangs, watch
// program phases, diagnose performance in the field) without touching the
// application, now across machines.
//
// Usage:
//
//	hbmon -file app.hb [-interval 500ms] [-window N] [-count N] [-follow]
//	hbmon -file app.hb -listen :9999 [-app NAME]     # relay the file over TCP
//	hbmon -shm /dev/shm/app.shm [-listen :9999]      # watch a shared-memory region
//	hbmon -connect HOST:9999 [-app NAME]             # watch a remote feed
//	hbmon -connect HOST:9999 -rollup [-app NAME]     # watch a rollup feed
//	hbmon -connect HOST:9999 -rollup -balance        # ...and print routing swaps
//	hbmon -relay -listen :9999 \
//	      -upstream a=host1:9999/app -upstream-file b=/var/run/b.hb
//
// Every mode tails its source incrementally: each tick reads only the
// records published since the previous one (an idle tick is a single
// cursor read), reports how many new beats arrived, and flags records lost
// to ring overwrite. With -follow the tail also survives the file being
// deleted and recreated by a restarted producer (the reader reopens on
// inode change); without it hbmon keeps watching the file it opened.
//
// With -shm, hbmon watches a shared-memory heartbeat region (hbshm)
// instead of a file: the same incremental tail as -follow, but an idle
// tick is a single atomic load from the mapping — no syscalls at all.
// Combined with -listen, hbmon exports the region as an hbnet feed, which
// is the paper's local/global split end to end: the application publishes
// into shared memory at store cost, and one monitor bridges it onto the
// network for everyone else.
//
// With -listen, hbmon additionally serves the file as an hbnet feed so
// observers on other machines can subscribe to it — the relay case: the
// application only writes a local file, hbmon exports it. With -connect,
// hbmon is such a remote observer: it streams the named feed and reports
// identically, including records missed across connection outages. The
// balance of the reporting flags applies to every mode. Each line reports:
// beat count, new beats this tick, heart rate over the window, the
// advertised target range, and the health classification (healthy / slow /
// fast / erratic / flatlined / dead).
//
// With -relay, hbmon is a hierarchical fan-in node (hbnet.Relay): it
// subscribes to every -upstream (a remote hbnet feed, NAME=ADDR/FEED) and
// -upstream-file (a local heartbeat file, NAME=PATH), merges them, and
// serves two feeds on -listen — the raw merged stream (-merged-feed,
// default "merged") and per-app downsampled rollups every
// -rollup-interval (-rollup-feed, default "rollup"). Relays compose:
// point an -upstream at another relay's merged feed and a single monitor
// can watch thousands of producers through one connection. Each rollup
// interval, the relay prints one line per app: records, rate, and
// losses. With -connect -rollup, hbmon subscribes to such a rollup feed
// and prints the same lines from the consumer side, each carrying the
// health weight a balance.Policy derives from the window evidence — the
// admission weight a load balancer watching this feed would give the
// app. Adding -balance drives a full balance.Updater from the feed and
// additionally prints every routing-table swap (drains, reclaim ramps)
// as it happens: the actuation layer's view of the fleet, from nothing
// but heartbeats.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/balance"
	"repro/clock"
	"repro/hbfile"
	"repro/hbnet"
	"repro/hbshm"
	"repro/internal/pump"
	"repro/observer"
)

// multiFlag collects a repeatable -flag value.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	path := flag.String("file", "", "heartbeat ring or log file to watch")
	shm := flag.String("shm", "", "shared-memory heartbeat region to watch (hbshm)")
	connect := flag.String("connect", "", "watch a remote hbnet feed at this address instead of a file")
	listen := flag.String("listen", "", "serve an hbnet feed on this address (with -file/-shm: relay it; with -relay: serve the merged and rollup feeds)")
	app := flag.String("app", "app", "feed name to serve (-listen) or subscribe to (-connect)")
	interval := flag.Duration("interval", 500*time.Millisecond, "reporting interval")
	window := flag.Int("window", 0, "rate window in beats (0 = file default)")
	count := flag.Int("count", 0, "stop after this many reports (0 = forever)")
	follow := flag.Bool("follow", false, "keep tailing across the file being deleted and recreated by a restarted producer")
	rollup := flag.Bool("rollup", false, "with -connect: the feed is a rollup feed; print per-app rollup lines")
	balanceSwaps := flag.Bool("balance", false, "with -connect -rollup: drive a balance.Updater from the feed and print routing-table swaps")
	relay := flag.Bool("relay", false, "run as a fan-in relay node (requires -listen and at least one -upstream/-upstream-file)")
	var upstreams, upstreamFiles multiFlag
	flag.Var(&upstreams, "upstream", "relay upstream, NAME=ADDR/FEED (repeatable)")
	flag.Var(&upstreamFiles, "upstream-file", "relay upstream heartbeat file, NAME=PATH (repeatable)")
	mergedFeed := flag.String("merged-feed", "merged", "feed name for the relay's raw merged stream (empty = don't publish)")
	rollupFeed := flag.String("rollup-feed", "rollup", "feed name for the relay's rollup stream (empty = don't publish)")
	rollupInterval := flag.Duration("rollup-interval", time.Second, "relay downsample window length")
	flag.Parse()

	if *relay {
		runRelay(*listen, upstreams, upstreamFiles, *mergedFeed, *rollupFeed, *rollupInterval, *interval)
		return
	}
	sources := 0
	for _, set := range []bool{*path != "", *shm != "", *connect != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		fmt.Fprintln(os.Stderr, "hbmon: exactly one of -file, -shm, or -connect is required")
		flag.Usage()
		os.Exit(2)
	}
	if *listen != "" && *connect != "" {
		fmt.Fprintln(os.Stderr, "hbmon: -listen relays a local source; it requires -file or -shm (or -relay)")
		os.Exit(2)
	}

	classifier := &observer.Classifier{Window: *window, Epoch: time.Now()} //hbvet:allow wallclock -- live monitor: rate epochs are real wall time by definition

	if *connect != "" {
		if *rollup {
			c, err := hbnet.DialRollup(*connect, *app)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hbmon:", err)
				os.Exit(1)
			}
			defer c.Close()
			fmt.Printf("watching remote rollup feed %q at %s\n", *app, *connect)
			runRollups(c, *count, *balanceSwaps)
			return
		}
		c, err := hbnet.Dial(*connect, *app)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hbmon:", err)
			os.Exit(1)
		}
		defer c.Close()
		fmt.Printf("watching remote feed %q at %s\n", *app, *connect)
		runFollow(c, classifier, *interval, *count)
		return
	}

	if *shm != "" {
		r, err := hbshm.Open(*shm)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hbmon:", err)
			os.Exit(1)
		}
		fmt.Printf("watching shared-memory region %s (window %d, capacity %d)\n", *shm, r.Window(), r.Capacity())
		if *listen != "" {
			serveFeed(*listen, *app, shmFeed(*shm, *interval/10))
		}
		s := hbshm.StreamFrom(r, *interval/10, 0, nil)
		defer s.Close()
		runFollow(s, classifier, *interval, *count)
		return
	}

	// Accept either file variant: the bounded ring or the append-only log.
	var (
		reader      observer.PolledReader
		closeReader func() error
	)
	if r, err := hbfile.Open(*path); err == nil {
		reader, closeReader = r, r.Close
		fmt.Printf("watching ring %s (pid %d, window %d, capacity %d)\n", *path, r.PID(), r.Window(), r.Capacity())
	} else if lr, lerr := hbfile.OpenLog(*path); lerr == nil {
		reader, closeReader = lr, lr.Close
		fmt.Printf("watching log %s (window %d, full history)\n", *path, lr.Window())
	} else {
		// Neither variant opened: show both failures — the ring error
		// alone would hide why a log file was rejected.
		fmt.Fprintln(os.Stderr, "hbmon: not a heartbeat ring:", err)
		fmt.Fprintln(os.Stderr, "hbmon: not a heartbeat log:", lerr)
		os.Exit(1)
	}

	if *listen != "" {
		// Each subscriber opens its own reader of the file, so the relay
		// and the local report never share a cursor.
		serveFeed(*listen, *app, hbnet.FileFeed(*path, *interval/10, nil))
	}

	if !*follow {
		defer closeReader()
		runFollow(observer.ReaderStream(reader, *interval/10, 0, nil), classifier, *interval, *count)
		return
	}
	// The banner reader's job is done; holding it open would pin the
	// deleted inode across the very producer restart the follow stream
	// exists to survive.
	closeReader()
	// The live tail reopens on inode change, so a producer that restarts
	// and recreates its file resumes instead of flatlining.
	fs, err := observer.FollowFile(*path, *interval/10, 0, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbmon:", err)
		os.Exit(1)
	}
	runFollow(fs, classifier, *interval, *count)
}

// serveFeed exports a local source as an hbnet feed alongside the local
// report. Binding synchronously makes a bad address fail the command
// outright; once serving, a relay failure only warns — the local monitor
// keeps reporting.
func serveFeed(listen, app string, feed hbnet.Feed) {
	srv := hbnet.NewServer()
	if err := srv.Publish(app, feed); err != nil {
		fmt.Fprintln(os.Stderr, "hbmon:", err)
		os.Exit(1)
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbmon:", err)
		os.Exit(1)
	}
	go func() {
		if err := srv.Serve(l); err != nil {
			fmt.Fprintln(os.Stderr, "hbmon: relay stopped:", err)
		}
	}()
	fmt.Printf("serving feed %q on %s\n", app, l.Addr())
}

// shmFeed adapts a shared-memory region to an hbnet feed: each subscriber
// maps its own reader, so remote cursors never interfere with each other
// or with the local report (parity with hbnet.FileFeed).
func shmFeed(path string, poll time.Duration) hbnet.Feed {
	return func(ctx context.Context, since uint64) (observer.Stream, error) {
		r, err := hbshm.Open(path)
		if err != nil {
			return nil, err
		}
		return hbshm.StreamFrom(r, poll, since, nil), nil
	}
}

// runFollow is the one report loop every mode shares: absorb new records
// as they land, judge and report every interval. Once the stream ends the
// window keeps its final state, and each report still waits out its
// interval.
func runFollow(stream observer.Stream, classifier *observer.Classifier, interval time.Duration, count int) {
	win := observer.NewWindow(classifier.Window)
	fail := func(err error) bool {
		fmt.Fprintln(os.Stderr, "hbmon:", err)
		os.Exit(1)
		return true
	}
	ended := false
	var lastCount, lastMissed uint64
	for reports := 0; count == 0 || reports < count; reports++ {
		ctx, cancel := context.WithCancel(context.Background())
		clock.AfterFunc(nil, interval, cancel)
		if !ended {
			ended = pump.Run(ctx, nil, interval, stream.Next, win.Absorb, fail)
		}
		<-ctx.Done()
		st := classifier.ClassifyWindow(win)
		delta := st.Count - lastCount
		if st.Count < lastCount {
			delta = st.Count // the producer restarted: every beat of its new life is new
		}
		report(st, delta, win.Missed()-lastMissed)
		lastCount, lastMissed = st.Count, win.Missed()
	}
}

// runRelay runs hbmon as a fan-in relay node: merge every upstream, serve
// the merged and rollup feeds, and print one rollup line per app per
// downsample window.
func runRelay(listen string, upstreams, upstreamFiles []string, mergedFeed, rollupFeed string, rollupInterval, poll time.Duration) {
	if listen == "" {
		fmt.Fprintln(os.Stderr, "hbmon: -relay requires -listen")
		os.Exit(2)
	}
	if len(upstreams)+len(upstreamFiles) == 0 {
		fmt.Fprintln(os.Stderr, "hbmon: -relay requires at least one -upstream or -upstream-file")
		os.Exit(2)
	}
	// The rollup callback runs on Run's tick, one call at a time and after
	// relay is assigned, so the shed-delta read below needs no synchronization.
	var relay *hbnet.Relay
	var lastShed uint64
	relay = hbnet.NewRelay(
		hbnet.WithRollupInterval(rollupInterval),
		hbnet.WithRelayOnError(func(app string, err error) {
			fmt.Fprintf(os.Stderr, "hbmon: upstream %s: %v\n", app, err)
		}),
		hbnet.WithRelayOnRollup(func(rs []observer.Rollup) {
			for _, r := range rs {
				reportRollup(r, -1)
			}
			// Backpressure visibility: when lagging subscribers forced this
			// relay to shed merged history since the last window, say so —
			// shed loss is deliberate and must never be silent.
			if shed := relay.Shed(); shed > lastShed {
				fmt.Printf("relay: shed %d records to slow subscribers (total %d)\n", shed-lastShed, shed)
				lastShed = shed
			}
		}),
	)
	for _, spec := range upstreams {
		name, rest, ok := strings.Cut(spec, "=")
		addr, feed, ok2 := strings.Cut(rest, "/")
		if !ok || !ok2 || name == "" || addr == "" || feed == "" {
			fmt.Fprintf(os.Stderr, "hbmon: bad -upstream %q, want NAME=ADDR/FEED\n", spec)
			os.Exit(2)
		}
		if _, err := relay.DialUpstream(name, addr, feed); err != nil {
			fmt.Fprintln(os.Stderr, "hbmon:", err)
			os.Exit(1)
		}
		fmt.Printf("upstream %s: feed %q at %s\n", name, feed, addr)
	}
	for _, spec := range upstreamFiles {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			fmt.Fprintf(os.Stderr, "hbmon: bad -upstream-file %q, want NAME=PATH\n", spec)
			os.Exit(2)
		}
		if err := relay.AddFileUpstream(name, path, poll/10); err != nil {
			fmt.Fprintln(os.Stderr, "hbmon:", err)
			os.Exit(1)
		}
		fmt.Printf("upstream %s: file %s\n", name, path)
	}
	srv := hbnet.NewServer(hbnet.WithServerOnError(func(err error) {
		fmt.Fprintln(os.Stderr, "hbmon:", err)
	}))
	if err := relay.PublishOn(srv, mergedFeed, rollupFeed); err != nil {
		fmt.Fprintln(os.Stderr, "hbmon:", err)
		os.Exit(1)
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbmon:", err)
		os.Exit(1)
	}
	go func() {
		if err := srv.Serve(l); err != nil {
			fmt.Fprintln(os.Stderr, "hbmon: serve:", err)
			os.Exit(1)
		}
	}()
	fmt.Printf("relaying %d upstreams on %s (merged %q, rollups %q every %v)\n",
		len(upstreams)+len(upstreamFiles), l.Addr(), mergedFeed, rollupFeed, rollupInterval)
	defer relay.Close()
	defer srv.Close()
	relay.Run(context.Background())
}

// runRollups prints rollups from a remote rollup feed; count bounds the
// printed report lines (one line per app per window), matching what
// -count means in the other modes. Every line carries the health weight
// a balance.Policy assigns from the window evidence; with printSwaps,
// the backing balance.Updater also reports each routing-table swap it
// publishes — the decisions a balancer fed by this monitor would make.
func runRollups(c *hbnet.Client, count int, printSwaps bool) {
	var opts []balance.UpdaterOption
	if printSwaps {
		opts = append(opts, balance.WithOnSwap(func(s balance.Swap) {
			fmt.Printf("%s  balance: %s %.2f -> %.2f, remapped %.1f%% of keys (weight share %.1f%%)\n",
				time.Now().Format("15:04:05.000"), s.Node, s.Old, s.New, 100*s.Frac(), 100*s.Share) //hbvet:allow wallclock -- wall-clock timestamp on a human-facing report line
		}))
	}
	updater := balance.NewUpdater(balance.New(), balance.DefaultPolicy(), opts...)
	printed := 0
	for count == 0 || printed < count {
		rb, err := c.NextRollups(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, "hbmon:", err)
			os.Exit(1)
		}
		if rb.Missed > 0 {
			fmt.Printf("(%d rollup windows lost to a long disconnect)\n", rb.Missed)
		}
		updater.Absorb(rb.Rollups...)
		for _, r := range rb.Rollups {
			reportRollup(r, updater.Weight(r.App))
			if printed++; count != 0 && printed >= count {
				break
			}
		}
	}
}

// reportRollup prints one per-app downsampled window; weight < 0 omits
// the health-weight column (relay mode, which judges nothing).
func reportRollup(r observer.Rollup, weight float64) {
	rate := "rate  n/a"
	if r.RateOK {
		rate = fmt.Sprintf("rate %7.2f beats/s", r.Rate.PerSec)
	}
	line := fmt.Sprintf("%s  %-12s beats %8d  +%d  %s",
		r.End.Format("15:04:05.000"), r.App, r.Count, r.Records, rate)
	if r.Records > 0 {
		line += fmt.Sprintf("  iv [%s %s %s]", r.MinInterval.Round(time.Microsecond),
			r.MeanInterval.Round(time.Microsecond), r.MaxInterval.Round(time.Microsecond))
	}
	if weight >= 0 {
		line += fmt.Sprintf("  weight %.2f", weight)
	}
	if r.Missed > 0 {
		line += fmt.Sprintf("  (missed %d)", r.Missed)
	}
	fmt.Println(line)
}

// report prints one status line; delta is the beats new since the last one.
func report(st observer.Status, delta, missed uint64) {
	target := "no target"
	if st.TargetSet {
		target = fmt.Sprintf("target [%.2f, %.2f]", st.TargetMin, st.TargetMax)
	}
	rate := "rate  n/a"
	if st.RateOK {
		rate = fmt.Sprintf("rate %7.2f beats/s", st.Rate)
	}
	line := fmt.Sprintf("%s  beats %8d", time.Now().Format("15:04:05.000"), st.Count) //hbvet:allow wallclock -- wall-clock timestamp on a human-facing report line
	line += fmt.Sprintf("  +%d  %s  %s  health %s", delta, rate, target, st.Health)
	if missed > 0 {
		line += fmt.Sprintf("  (missed %d: consumer outran by ring overwrite)", missed)
	}
	fmt.Println(line)
}
