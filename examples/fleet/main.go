// Fleet-scale observation through a hierarchical relay tier: 30 producer
// PROCESSES, each beating into its own heartbeat ring file, observed
// through TWO relay layers — three leaf relays tail ten producer files
// each, and one root relay subscribes to the three leaves' merged feeds —
// so the monitor at the top watches the whole fleet through exactly one
// raw connection plus one rollup connection. This is the fan-in shape that
// keeps every node's load bounded as the fleet grows: no observer ever
// dials more than a handful of feeds, however many producers exist.
//
// Mid-run the demo injects the two failures a real fleet sees weekly:
//
//   - a PRODUCER RESTART: one producer process is killed, its ring file
//     deleted, and a new process recreates the path. The leaf relay's
//     live tail (observer.FollowFile) notices the inode change and
//     resumes with the new life's records — no flatline, no loss.
//   - a RELAY OUTAGE: one leaf relay drops its listener and every
//     subscriber connection for a second, then serves again on the same
//     address. The root relay's client redials with its cursor and
//     resumes exactly where it left off — a blip costs a delay, never a
//     duplicate and never a silent gap.
//
// At the end the run is audited: the root's merged stream must be
// exactly-once and dense (every hop-local sequence number present exactly
// once, zero records missed), its total must equal the sum of beats every
// producer process reported writing (across both lives of the restarted
// one), and the rollup feed's per-window record counts must sum to the
// same total — downsampling conserves the fleet's arithmetic.
//
//	go run ./examples/fleet
//
// (The binary re-executes itself with -producer / -leaf / -root to become
// the child processes.)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/hbfile"
	"repro/hbnet"
	"repro/heartbeat"
)

const (
	producers     = 30
	leaves        = 3
	perLeaf       = producers / leaves
	beatInterval  = 3 * time.Millisecond
	rollupEvery   = 250 * time.Millisecond
	leafPoll      = 5 * time.Millisecond
	mergedFeed    = "merged"
	rollupFeed    = "rollup"
	restartVictim = 7 // producer index killed and restarted mid-run
	outageLeaf    = 1 // leaf index that loses its server mid-run
)

func main() {
	producer := flag.String("producer", "", "internal: run as a producer writing this ring file")
	leaf := flag.String("leaf", "", "internal: run as a leaf relay over these comma-separated name=path files")
	root := flag.String("root", "", "internal: run as the root relay over these comma-separated name=addr upstreams")
	flag.Parse()
	switch {
	case *producer != "":
		runProducer(*producer)
	case *leaf != "":
		runRelayProcess(func(r *hbnet.Relay) error {
			for _, spec := range strings.Split(*leaf, ",") {
				name, path, _ := strings.Cut(spec, "=")
				if err := r.AddFileUpstream(name, path, leafPoll); err != nil {
					return err
				}
			}
			return nil
		}, nil)
	case *root != "":
		clients := map[string]*hbnet.Client{}
		runRelayProcess(func(r *hbnet.Relay) error {
			for _, spec := range strings.Split(*root, ",") {
				name, addr, _ := strings.Cut(spec, "=")
				c, err := r.DialUpstream(name, addr, mergedFeed,
					hbnet.WithReconnectBackoff(20*time.Millisecond, 200*time.Millisecond))
				if err != nil {
					return err
				}
				clients[name] = c
			}
			return nil
		}, func() {
			// The proof the outage happened AND healed: the root's
			// upstream client redialed (with its cursor) and the audit
			// above still found nothing duplicated or lost.
			for name, c := range clients {
				fmt.Fprintf(os.Stderr, "root: upstream %s reconnected %d times, missed %d records\n",
					name, c.Reconnects(), c.Missed())
			}
		})
	default:
		runFleet()
	}
}

// runProducer is one fleet member: an application beating into its own
// ring file until stdin closes, then reporting how many beats it wrote.
func runProducer(path string) {
	w, err := hbfile.Create(path, 20, 1<<15)
	if err != nil {
		log.Fatal(err)
	}
	hb, err := heartbeat.New(20, heartbeat.WithSink(w), heartbeat.WithCapacity(1<<15))
	if err != nil {
		log.Fatal(err)
	}
	hb.SetTarget(100, 1000)
	fmt.Println("UP")

	stop := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin) // EOF on stdin = stop
		close(stop)
	}()
	ticker := time.NewTicker(beatInterval) //hbvet:allow wallclock -- child process beats in real time over real TCP; no virtual clock spans processes
	defer ticker.Stop()
	for beating := true; beating; {
		select {
		case <-ticker.C:
			hb.Beat()
		case <-stop:
			beating = false
		}
	}
	count := hb.Count()
	hb.Close()
	w.Close()
	fmt.Printf("DONE %d\n", count)
}

// runRelayProcess is the shared child body of the leaf and root relays:
// build the upstreams, serve merged+rollup feeds on an ephemeral port, and
// obey stdin commands ("outage" = drop the server for a second and serve
// again on the same address — the relay and its histories keep running).
func runRelayProcess(addUpstreams func(*hbnet.Relay) error, atExit func()) {
	relay := hbnet.NewRelay(
		hbnet.WithRollupInterval(rollupEvery),
		hbnet.WithMergedRetain(1<<18),
		hbnet.WithRelayOnError(func(app string, err error) {
			fmt.Fprintf(os.Stderr, "relay: upstream %s: %v\n", app, err)
		}),
	)
	if err := addUpstreams(relay); err != nil {
		log.Fatal(err)
	}
	serve := func(addr string) (*hbnet.Server, net.Listener) {
		srv := hbnet.NewServer()
		if err := relay.PublishOn(srv, mergedFeed, rollupFeed); err != nil {
			log.Fatal(err)
		}
		var l net.Listener
		var err error
		for tries := 0; ; tries++ {
			if l, err = net.Listen("tcp", addr); err == nil {
				break
			}
			if tries > 200 {
				log.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond) //hbvet:allow wallclock -- real listen-retry backoff while a prior process releases the port
		}
		go srv.Serve(l)
		return srv, l
	}
	srv, l := serve("127.0.0.1:0")
	addr := l.Addr().String()
	fmt.Printf("ADDR %s\n", addr)

	go relay.Run(context.Background())

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if sc.Text() != "outage" {
			continue
		}
		// The forced outage: listener and every subscriber connection die;
		// the relay itself — upstream pumps, merged ring, rollup history —
		// keeps running, exactly like a crashed load balancer in front of a
		// healthy node. Subscribers redial with their cursors and lose
		// nothing the rings retain.
		srv.Close()
		time.Sleep(time.Second) //hbvet:allow wallclock -- staged real-time outage window for the demo narrative
		srv, _ = serve(addr)
		fmt.Println("RESTORED")
	}
	if atExit != nil {
		atExit()
	}
	relay.Close()
	srv.Close()
}

// child wraps a spawned fleet process and its control pipe.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
}

// spawn re-executes this binary with args and waits for its banner line
// with the given prefix, returning the banner's payload.
func spawn(exe string, args []string, banner string) (*child, string) {
	cmd := exec.Command(exe, args...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		log.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		log.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatal(err)
	}
	c := &child{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)}
	for c.out.Scan() {
		if v, ok := strings.CutPrefix(c.out.Text(), banner); ok {
			return c, strings.TrimSpace(v)
		}
	}
	log.Fatalf("child %v never printed %q", args, banner)
	return nil, ""
}

// stop closes the child's stdin and waits for the trailing "DONE n" line
// (producers) or plain exit.
func (c *child) stop(wantDone bool) uint64 {
	c.stdin.Close()
	var count uint64
	if wantDone {
		for c.out.Scan() {
			if v, ok := strings.CutPrefix(c.out.Text(), "DONE "); ok {
				fmt.Sscanf(v, "%d", &count)
				break
			}
		}
	}
	done := make(chan struct{})
	go func() { c.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second): //hbvet:allow wallclock -- real kill timeout for a real child process
		c.cmd.Process.Kill()
		<-done
	}
	return count
}

func runFleet() {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "fleet")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Layer 0: the producers, each its own OS process with its own file.
	fmt.Printf("starting %d producer processes...\n", producers)
	paths := make([]string, producers)
	prods := make([]*child, producers)
	for i := range prods {
		paths[i] = filepath.Join(dir, fmt.Sprintf("p%02d.hb", i))
		prods[i], _ = spawn(exe, []string{"-producer", paths[i]}, "UP")
	}

	// Layer 1: leaf relays, ten files each.
	leafChildren := make([]*child, leaves)
	leafAddrs := make([]string, leaves)
	for i := range leafChildren {
		specs := make([]string, 0, perLeaf)
		for j := i * perLeaf; j < (i+1)*perLeaf; j++ {
			specs = append(specs, fmt.Sprintf("p%02d=%s", j, paths[j]))
		}
		leafChildren[i], leafAddrs[i] = spawn(exe, []string{"-leaf", strings.Join(specs, ",")}, "ADDR ")
		fmt.Printf("leaf-%d relaying %d files at %s\n", i, perLeaf, leafAddrs[i])
	}

	// Layer 2: the root relay over the three leaves.
	rootSpecs := make([]string, leaves)
	for i, a := range leafAddrs {
		rootSpecs[i] = fmt.Sprintf("leaf-%d=%s", i, a)
	}
	rootChild, rootAddr := spawn(exe, []string{"-root", strings.Join(rootSpecs, ",")}, "ADDR ")
	fmt.Printf("root relaying %d leaves at %s\n", leaves, rootAddr)

	// The monitor: ONE raw connection and ONE rollup connection cover all
	// 30 producers.
	audit, err := hbnet.Dial(rootAddr, mergedFeed,
		hbnet.WithReconnectBackoff(20*time.Millisecond, 200*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	rollups, err := hbnet.DialRollup(rootAddr, rollupFeed)
	if err != nil {
		log.Fatal(err)
	}

	var (
		auditSeqs   []uint64
		auditMissed uint64
	)
	noWait, cancelNoWait := context.WithCancel(context.Background())
	cancelNoWait()
	drainAudit := func(ctx context.Context) {
		for {
			b, err := audit.Next(ctx)
			if err != nil {
				return
			}
			for _, r := range b.Records {
				auditSeqs = append(auditSeqs, r.Seq)
			}
			auditMissed += b.Missed
		}
	}
	rollupRecords := map[string]uint64{}
	var rollupMissed uint64
	drainRollups := func(ctx context.Context) {
		for {
			rb, err := rollups.NextRollups(ctx)
			if err != nil {
				return
			}
			for _, r := range rb.Rollups {
				rollupRecords[r.App] += r.Records
				rollupMissed += r.Missed
			}
		}
	}
	pump := func(d time.Duration) {
		deadline := time.Now().Add(d)     //hbvet:allow wallclock -- real drain deadline: the fleet runs across processes in wall time
		for time.Now().Before(deadline) { //hbvet:allow wallclock -- checks the real drain deadline set above
			ctx, cancel := context.WithDeadline(context.Background(), deadline) //hbvet:allow wallclock -- bounds a real network drain with the same wall deadline
			drainAudit(ctx)
			cancel()
			drainRollups(noWait)
		}
	}

	counts := make([]uint64, producers)

	fmt.Println("\nfleet beating; monitor draining the root's merged + rollup feeds...")
	pump(2 * time.Second)

	// Failure 1: a producer restart with file recreation.
	fmt.Printf("killing producer %d and deleting its file (restart with a fresh ring)...\n", restartVictim)
	counts[restartVictim] = prods[restartVictim].stop(true)
	if err := os.Remove(paths[restartVictim]); err != nil {
		log.Fatal(err)
	}
	pump(300 * time.Millisecond) // a few leaf polls: the tail notices
	prods[restartVictim], _ = spawn(exe, []string{"-producer", paths[restartVictim]}, "UP")
	fmt.Printf("producer %d restarted: same path, new inode, sequence numbers back at 1\n", restartVictim)

	pump(1 * time.Second)

	// Failure 2: a leaf relay outage.
	fmt.Printf("forcing a server outage on leaf-%d (listener and all connections drop for 1s)...\n", outageLeaf)
	fmt.Fprintln(leafChildren[outageLeaf].stdin, "outage")
	pump(2 * time.Second)
	fmt.Printf("leaf-%d restored; root resumed from its cursor (reconnects are the leaf's to report)\n", outageLeaf)

	pump(1 * time.Second)

	// Wind down: stop the producers, collect their self-reported counts.
	fmt.Println("stopping producers...")
	var produced uint64
	for i, p := range prods {
		counts[i] += p.stop(true)
		produced += counts[i]
	}

	// Let the tail drain through both relay layers and the last rollup
	// windows flush, then take the final audit.
	deadline := time.Now().Add(15 * time.Second)                                       //hbvet:allow wallclock -- real drain deadline: the fleet runs across processes in wall time
	for uint64(len(auditSeqs))+auditMissed < produced && time.Now().Before(deadline) { //hbvet:allow wallclock -- checks the real drain deadline set above
		pump(200 * time.Millisecond)
	}
	var rollupTotal uint64
	recount := func() uint64 {
		rollupTotal = 0
		for _, n := range rollupRecords {
			rollupTotal += n
		}
		return rollupTotal + rollupMissed
	}
	for recount() < produced && time.Now().Before(deadline) { //hbvet:allow wallclock -- checks the real drain deadline set above
		pump(200 * time.Millisecond)
	}

	// The verdicts.
	dense := true
	for i, seq := range auditSeqs {
		if seq != uint64(i+1) {
			dense = false
			fmt.Printf("FAIL: audit seq %d at position %d (duplicate or gap)\n", seq, i)
			break
		}
	}
	total := uint64(len(auditSeqs))
	fmt.Printf("\nproduced:          %d beats across %d producer processes (incl. both lives of p%02d)\n",
		produced, producers, restartVictim)
	fmt.Printf("merged audit:      %d records, %d missed, dense 1..%d: %v\n",
		total, auditMissed, total, dense)
	fmt.Printf("rollup audit:      %d records, %d missed across %d apps\n",
		rollupTotal, rollupMissed, len(rollupRecords))
	fmt.Printf("root reconnects:   audit client %d (its own connection never dropped)\n", audit.Reconnects())

	ok := true
	check := func(cond bool, what string) {
		if !cond {
			ok = false
			fmt.Println("FAIL:", what)
		}
	}
	check(dense, "merged stream not exactly-once dense")
	check(auditMissed == 0, "records were lost end to end")
	check(total == produced, fmt.Sprintf("merged total %d != produced %d", total, produced))
	check(rollupMissed == 0, "rollups reported losses")
	check(rollupTotal == produced, fmt.Sprintf("rollup total %d != produced %d", rollupTotal, produced))

	audit.Close()
	rollups.Close()
	rootChild.stop(false)
	for _, lc := range leafChildren {
		lc.stop(false)
	}

	if !ok {
		fmt.Println("\nFLEET AUDIT FAILED")
		os.Exit(1)
	}
	fmt.Println("\nFLEET AUDIT PASSED: exactly-once dense delivery and conserved rollup counts,")
	fmt.Println("through two relay layers, across a producer restart (file recreation) and a relay outage.")
}
