// Cloud load balancing and failover (§2.6) with the loop actually
// closed: each server node runs as a separate OS process serving real
// HTTP, beats once per served request, and publishes its heartbeats over
// hbnet (loopback TCP). The balancer process shares no memory with the
// nodes — a relay reduces their streams into rollup windows, a
// balance.Updater turns those windows into health weights, and a
// lock-free balance.Table routes every proxied request by consistent
// hashing. A lack of heartbeats from a node means it failed; recovery is
// visible the same way; and the routing consequences follow from the
// weights alone.
//
// The run is a self-auditing demonstration of the balance package's two
// load-bearing properties, checked live and fatal on violation:
//
//   - minimal disruption: draining the flatlined node moves only its own
//     share of the key space (printed and asserted against
//     simcheck.RemapBound); every key owned by a surviving node stays
//     exactly where it was;
//   - exact reclaim: when the node recovers and ramps back to full
//     weight, every key it held before the failure returns to it — the
//     post-recovery mapping is compared key by key against the baseline.
//
// A final act closes the loop through repro/control: one node turns
// slow, its observed heart rate sags below the provisioned target, and a
// PI controller shapes the policy's proposed weight down until the rate
// evidence recovers — §2.6's "use the additional information provided by
// heartbeats to make smarter allocation decisions", with the decision
// being admission weight rather than cores.
//
//	go run ./examples/cloud-balancer
//
// The process exits non-zero if any audited invariant fails.
// (The binary re-executes itself with -node to become a node process.)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/balance"
	"repro/control"
	"repro/hbnet"
	"repro/heartbeat"
	"repro/internal/simcheck"
	"repro/observer"
)

// expectedRate is the per-node provisioned heart rate (beats/s ≡ served
// requests/s) the policy and the PI controller both judge against. The
// canary probes alone keep a healthy idle node comfortably above it, so
// rate evidence only trims weight when a node is genuinely degraded.
const expectedRate = 10

func main() {
	nodeName := flag.String("node", "", "internal: run as the named server node")
	flag.Parse()
	if *nodeName != "" {
		runNode(*nodeName)
		return
	}
	runBalancer()
}

// runNode is the server-node process: an HTTP server that beats once per
// served request and publishes its heartbeats over hbnet. Fault
// injection is part of its admin surface — /hang makes it consume
// requests without beating (nothing else announces the failure), /slow
// serializes it through a long service time so it still beats, just too
// slowly. It exits when its stdin closes (the balancer went away).
func runNode(name string) {
	hb, err := heartbeat.New(20, heartbeat.WithCapacity(1<<14))
	if err != nil {
		log.Fatal(err)
	}
	// The provisioned rate: the minimum calibrates both the balancer-side
	// classifier (flatline threshold, slow threshold) and the weight
	// policy's rate degradation.
	if err := hb.SetTarget(expectedRate, 100000); err != nil {
		log.Fatal(err)
	}
	srv := hbnet.NewServer()
	if err := srv.PublishHeartbeat(name, hb); err != nil {
		log.Fatal(err)
	}
	hbl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(hbl)

	var hung, slow atomic.Bool
	var gate sync.Mutex // serializes service while slow: a degraded node's capacity is bounded
	mux := http.NewServeMux()
	mux.HandleFunc("/serve", func(w http.ResponseWriter, r *http.Request) {
		if hung.Load() {
			// A hung node consumes the request but never beats.
			http.Error(w, name+" hung", http.StatusServiceUnavailable)
			return
		}
		if slow.Load() {
			gate.Lock()
			if slow.Load() {
				time.Sleep(250 * time.Millisecond) //hbvet:allow wallclock -- injected real service latency: the slow-node phase of the demo
			}
			gate.Unlock()
		} else {
			time.Sleep(time.Millisecond) //hbvet:allow wallclock -- baseline real service latency for a real HTTP handler
		}
		hb.Beat()
		io.WriteString(w, name)
	})
	for path, set := range map[string]func(){
		"/hang":    func() { hung.Store(true) },
		"/recover": func() { hung.Store(false) },
		"/slow":    func() { slow.Store(true) },
		"/fast":    func() { slow.Store(false) },
	} {
		set := set
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) { set(); io.WriteString(w, "ok") })
	}
	httpl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(httpl, mux)
	fmt.Printf("ADDR hb=%s http=%s\n", hbl.Addr(), httpl.Addr())

	io.Copy(io.Discard, os.Stdin) // EOF: the balancer exited
	hb.Close()
	srv.Close()
}

// node is the balancer's view of one backend: where its heartbeats are,
// where its HTTP is, and the stdin pipe whose closure tells it to exit.
type node struct {
	name    string
	hbAddr  string
	httpURL string
	closeIn io.Closer
}

func (n *node) admin(cmd string) {
	resp, err := http.Get(n.httpURL + "/" + cmd)
	if err != nil {
		fail("admin %s on %s: %v", cmd, n.name, err)
	}
	resp.Body.Close()
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "AUDIT FAIL: "+format+"\n", args...)
	os.Exit(1)
}

func waitFor(what string, d time.Duration, cond func() bool) {
	deadline := time.Now().Add(d)     //hbvet:allow wallclock -- real deadline for a cross-process condition; no clock spans the fleet
	for time.Now().Before(deadline) { //hbvet:allow wallclock -- checks the real deadline set above
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond) //hbvet:allow wallclock -- real polling cadence for a cross-process condition
	}
	fail("timed out after %v waiting for %s", d, what)
}

func runBalancer() {
	// The whole demonstration is bounded: a wedged phase is an audit
	// failure, not a hang.
	time.AfterFunc(90*time.Second, func() { fail("demo exceeded its 90s deadline") }) //hbvet:allow wallclock -- hard real-time bound so a wedged demo fails loudly instead of hanging

	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	spawn := func(name string) (*node, *exec.Cmd) {
		cmd := exec.Command(exe, "-node", name)
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
		var hbAddr, httpAddr string
		buf := make([]byte, 256)
		var line strings.Builder
		for !strings.Contains(line.String(), "\n") {
			n, err := stdout.Read(buf)
			if n > 0 {
				line.Write(buf[:n])
			}
			if err != nil {
				log.Fatalf("node %s never reported its addresses", name)
			}
		}
		for _, f := range strings.Fields(line.String()) {
			if a, ok := strings.CutPrefix(f, "hb="); ok {
				hbAddr = a
			}
			if a, ok := strings.CutPrefix(f, "http="); ok {
				httpAddr = a
			}
		}
		if hbAddr == "" || httpAddr == "" {
			log.Fatalf("node %s reported a malformed address line: %q", name, line.String())
		}
		return &node{name: name, hbAddr: hbAddr, httpURL: "http://" + httpAddr, closeIn: stdin}, cmd
	}

	var nodes []*node
	var cmds []*exec.Cmd
	byName := map[string]*node{}
	for _, name := range []string{"node-a", "node-b", "node-c"} {
		n, cmd := spawn(name)
		nodes = append(nodes, n)
		cmds = append(cmds, cmd)
		byName[name] = n
		fmt.Printf("%s up: pid %d, heartbeats at %s, http at %s\n", n.name, cmd.Process.Pid, n.hbAddr, n.httpURL)
	}
	defer func() {
		for i, cmd := range cmds {
			nodes[i].closeIn.Close()
			done := make(chan struct{})
			go func(c *exec.Cmd) { c.Wait(); close(done) }(cmd)
			select {
			case <-done:
			case <-time.After(3 * time.Second): //hbvet:allow wallclock -- real kill timeout for a real child process
				cmd.Process.Kill()
				<-done
			}
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The relay reduces every node's raw heartbeat stream into 100ms
	// rollup windows — the same constant-size evidence a fleet-scale
	// deployment would forward — and the updater consumes them.
	relay := hbnet.NewRelay(hbnet.WithRollupInterval(100 * time.Millisecond))
	for _, n := range nodes {
		if _, err := relay.DialUpstream(n.name, n.hbAddr, n.name); err != nil {
			log.Fatal(err)
		}
	}
	go relay.Run(ctx)

	// Freshest observed rate per node, for the PI actuator and the
	// narration: a second, independent subscription to the same rollup
	// feed the updater consumes.
	var rmu sync.Mutex
	rates := map[string]float64{}
	go relay.RollupFeed().Consume(ctx, 0, func(b hbnet.RollupBatch) error {
		rmu.Lock()
		for _, r := range b.Rollups {
			rates[r.App] = r.ObservedRate()
		}
		rmu.Unlock()
		return nil
	})

	// The routing table and the policy that drives it. Every swap the
	// updater publishes is audited on the spot against the minimal-
	// disruption bound — the same invariant the simnet matrix checks.
	table := balance.New(balance.WithBuckets(1024))
	policy := balance.Policy{
		DrainAfter: 2, ReclaimAfter: 2, ReclaimStart: 0.25,
		MinDelta: 0.1, SlowCap: 0.5, ExpectedRate: expectedRate,
	}
	var amu sync.Mutex
	var auditErr error
	var swaps []balance.Swap
	onSwap := func(s balance.Swap) {
		amu.Lock()
		defer amu.Unlock()
		swaps = append(swaps, s)
		fmt.Printf("         swap: %s %.2f -> %.2f, remapped %5.1f%% of keys (weight share %5.1f%%, bound %5.1f%%)\n",
			s.Node, s.Old, s.New, 100*s.Frac(), 100*s.Share, 100*simcheck.RemapBound(s.Share))
		if err := simcheck.CheckRemap("swap "+s.Node, s.Frac(), s.Share); err != nil && auditErr == nil {
			auditErr = err
		}
	}

	// The PI actuator: engaged for the final act, it shapes the policy's
	// proposed weight of a live node by the node's measured heart rate —
	// negative gains, because a node below its provisioned rate should
	// hold less of the key space, not be pushed harder.
	var actuateOn atomic.Bool
	pis := map[string]*control.PI{}
	actuate := func(nodeName string, proposed float64) float64 {
		if !actuateOn.Load() {
			return proposed
		}
		rmu.Lock()
		rate, ok := rates[nodeName]
		rmu.Unlock()
		if !ok {
			return proposed
		}
		pi := pis[nodeName]
		if pi == nil {
			pi = &control.PI{Kp: -0.01, Ki: -0.3, Setpoint: expectedRate, MinOutput: 0.2, MaxOutput: 1}
			pis[nodeName] = pi
		}
		shaped := pi.Update(rate, 0.1)
		if shaped < proposed {
			fmt.Printf("         pi: %s observed %.1f beats/s against target %d, weight %.2f shaped to %.2f\n",
				nodeName, rate, expectedRate, proposed, shaped)
			return shaped
		}
		return proposed
	}
	updater := balance.NewUpdater(table, policy, balance.WithOnSwap(onSwap), balance.WithActuator(actuate))
	go updater.Run(ctx, relay.RollupFeed(), 0)

	// The hub judges raw heartbeats balancer-side — the classifier path.
	// A flatline drains through StatusHook immediately, without waiting
	// for two silent rollup windows.
	statusHook := updater.StatusHook()
	var hmu sync.Mutex
	lastHealth := map[string]observer.Health{}
	hub := observer.NewHub(50*time.Millisecond, func(name string, st observer.Status) {
		hmu.Lock()
		prev, known := lastHealth[name]
		lastHealth[name] = st.Health
		hmu.Unlock()
		if known && prev != st.Health {
			fmt.Printf("         hub: %s %s -> %s (beats=%d)\n", name, prev, st.Health, st.Count)
		}
		statusHook(name, st)
	}, observer.WithHubClassifier(func(string) *observer.Classifier {
		// HTTP arrival is bursty by nature here, so interval jitter is not
		// a fault signal — only flatline and rate matter to this balancer.
		return &observer.Classifier{FlatlineFactor: 8, ErraticCV: 1e6}
	}))
	for _, n := range nodes {
		c, err := hbnet.Dial(n.hbAddr, n.name)
		if err != nil {
			log.Fatal(err)
		}
		if err := hub.Add(n.name, c); err != nil {
			c.Close()
			log.Fatal(err)
		}
	}
	go hub.Run(ctx)

	// The proxy: a real HTTP server whose only routing input is the
	// lock-free table. Per request: one atomic pointer load, one hash.
	var pmu sync.Mutex
	routed := map[string]int{}
	// Fail fast on a degraded backend: its serialized service time exceeds
	// this timeout, so requests routed there error out instead of capturing
	// every worker in its queue.
	backend := &http.Client{Timeout: 150 * time.Millisecond}
	proxy := http.NewServeMux()
	proxy.HandleFunc("/work", func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		dst, ok := table.PickString(key)
		if !ok {
			http.Error(w, "no backend admitted", http.StatusServiceUnavailable)
			return
		}
		pmu.Lock()
		routed[dst]++
		pmu.Unlock()
		resp, err := backend.Get(byName[dst].httpURL + "/serve?key=" + key)
		if err != nil {
			http.Error(w, "backend "+dst+" failed: "+err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	})
	proxyl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(proxyl, proxy)
	proxyURL := "http://" + proxyl.Addr().String()
	fmt.Printf("proxy up at %s, routing by consistent hash over health weights\n\n", proxyURL)

	// Traffic: concurrent workers request random keys through the proxy;
	// every 25th request per worker is a canary probe straight at a
	// random backend, so a drained node still gets the chance to prove
	// itself alive again.
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("user-%04d", i)
	}
	var workErrs atomic.Int64
	client := &http.Client{Timeout: 400 * time.Millisecond}
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ctx.Err() == nil; i++ {
				var url string
				if i%25 == 0 {
					url = nodes[rng.Intn(len(nodes))].httpURL + "/serve?key=canary"
				} else {
					url = proxyURL + "/work?key=" + keys[rng.Intn(len(keys))]
				}
				resp, err := client.Get(url)
				if err != nil {
					workErrs.Add(1)
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						workErrs.Add(1)
					}
				}
				time.Sleep(3 * time.Millisecond) //hbvet:allow wallclock -- real request pacing against a real HTTP server
			}
		}(int64(w))
	}

	weight := updater.Weight
	allAt := func(w float64) func() bool {
		return func() bool {
			for _, n := range nodes {
				if weight(n.name) != w {
					return false
				}
			}
			return true
		}
	}
	snapshot := func() map[string]string {
		m := make(map[string]string, len(keys))
		for _, k := range keys {
			if owner, ok := table.PickString(k); ok {
				m[k] = owner
			}
		}
		return m
	}

	// ---- Phase 1: admission. Live rollup windows admit all three nodes
	// at full weight; the baseline mapping is the reference every later
	// audit compares against.
	waitFor("all three nodes admitted at weight 1", 10*time.Second, allAt(1))
	base := snapshot()
	owns := map[string]int{}
	for _, owner := range base {
		owns[owner]++
	}
	fmt.Printf("\nphase 1: all nodes admitted; baseline over %d keys:", len(keys))
	for _, n := range nodes {
		fmt.Printf(" %s=%d", n.name, owns[n.name])
		if owns[n.name] == 0 {
			fail("baseline gives %s no keys at equal weight", n.name)
		}
	}
	fmt.Println()

	// ---- Phase 2: failure. node-b hangs — it still answers HTTP, but it
	// stops beating, and only the missing heartbeats tell the balancer.
	byName["node-b"].admin("hang")
	fmt.Println("\nphase 2: node-b hangs (stops beating — nothing else announces the failure)")
	waitFor("node-b drained to weight 0", 10*time.Second, func() bool { return weight("node-b") == 0 })

	amu.Lock()
	var drain balance.Swap
	for _, s := range swaps {
		if s.Node == "node-b" && s.New == 0 {
			drain = s
		}
	}
	amu.Unlock()
	if drain.Node == "" {
		fail("node-b drained but no drain swap was recorded")
	}
	if err := simcheck.CheckRemap("drain node-b", drain.Frac(), drain.Share); err != nil {
		fail("%v", err)
	}
	fmt.Printf("         drain moved %.1f%% of the key space for a %.1f%% weight share — within the minimal-disruption bound\n",
		100*drain.Frac(), 100*drain.Share)

	post := snapshot()
	moved := 0
	for k, owner := range base {
		switch {
		case owner == "node-b":
			if post[k] == "node-b" {
				fail("key %s still maps to the drained node", k)
			}
			moved++
		case post[k] != owner:
			fail("survivor key %s moved %s -> %s during an unrelated drain", k, owner, post[k])
		}
	}
	fmt.Printf("         %d/%d keys reassigned (exactly node-b's), 0 survivor keys moved\n", moved, len(keys))

	// ---- Phase 3: recovery. Beats resume (via canaries), hysteresis
	// demands consecutive good windows, then the ramp reclaims — and the
	// table owes us the exact baseline mapping back.
	byName["node-b"].admin("recover")
	fmt.Println("\nphase 3: node-b repaired (beats resume; watch the reclaim ramp)")
	waitFor("node-b ramped back to weight 1", 15*time.Second, allAt(1))
	restored := snapshot()
	for k, owner := range base {
		if restored[k] != owner {
			fail("after reclaim, key %s maps to %s, want its original owner %s", k, restored[k], owner)
		}
	}
	fmt.Printf("         exact reclaim: all %d keys back on their original owners\n", len(keys))

	// ---- Phase 4: degradation. node-c turns slow — still beating, far
	// below its provisioned rate — and the PI controller shapes its
	// weight down from the rate evidence, then releases it on recovery.
	actuateOn.Store(true)
	byName["node-c"].admin("slow")
	fmt.Println("\nphase 4: node-c degrades (beats continue, far below the provisioned rate)")
	waitFor("node-c's weight shaped down to <= 0.6", 15*time.Second, func() bool { return weight("node-c") <= 0.6 })
	fmt.Printf("         node-c trimmed to weight %.2f while degraded\n", weight("node-c"))
	byName["node-c"].admin("fast")
	waitFor("node-c restored to weight 1", 15*time.Second, allAt(1))
	final := snapshot()
	for k, owner := range base {
		if final[k] != owner {
			fail("after node-c's recovery, key %s maps to %s, want %s", k, final[k], owner)
		}
	}
	fmt.Println("         rate recovered; weight released; mapping identical to the baseline again")

	amu.Lock()
	nswaps, aerr := len(swaps), auditErr
	amu.Unlock()
	if aerr != nil {
		fail("%v", aerr)
	}

	cancel()
	pmu.Lock()
	fmt.Printf("\nrequests proxied per node:")
	for _, n := range nodes {
		fmt.Printf(" %s=%d", n.name, routed[n.name])
	}
	pmu.Unlock()
	fmt.Printf("\nfailed requests (hung-node window + degraded-node timeouts): %d\n", workErrs.Load())
	fmt.Printf("%d table swaps, every one within the minimal-disruption bound; drain, reclaim, and PI trim all audited live\n", nswaps)
	fmt.Println("OK: detection, drain, minimal reshuffle, exact reclaim, and control-shaped weights — all from heartbeats alone, across process boundaries")
}
