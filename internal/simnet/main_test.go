package simnet

import (
	"os"
	"runtime"
	"testing"
)

// TestMain pins the package to one P. clock.Virtual.AutoAdvance settles the
// goroutines an advance woke by yielding (settleRounds × runtime.Gosched)
// before it leaps to the next deadline, and a yield is a handshake only
// when there is a single P: every runnable goroutine then runs, and parks
// again, before the yielder resumes. With two or more, virtual timeouts
// fire while the goroutine they guard is still runnable on another P, and
// the scenario, scale and failover suites fail a different subset every
// run. This states the precondition the simulator already has and removes
// no assertion; ROADMAP item 1 (quiescence-driven virtual time) deletes the
// pin together with the heuristic and with waitReal, the one real-time wait
// every settle and test wait in this package goes through.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}
