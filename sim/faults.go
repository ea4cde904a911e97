package sim

import "sort"

// FaultEvent schedules the failure of FailCores cores when the application
// reaches heartbeat number AtBeat. The paper's fault-tolerance experiment
// (§5.4) kills cores at frames 160, 320 and 480.
type FaultEvent struct {
	AtBeat    uint64
	FailCores int
}

// FaultInjector applies a sequence of FaultEvents to a Machine as the
// application's beat count advances. It is not safe for concurrent use;
// drive it from the experiment loop.
type FaultInjector struct {
	events []FaultEvent
	next   int
}

// NewFaultInjector returns an injector for the given events, which are
// applied in beat order regardless of argument order.
func NewFaultInjector(events ...FaultEvent) *FaultInjector {
	sorted := make([]FaultEvent, len(events))
	copy(sorted, events)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].AtBeat < sorted[j].AtBeat })
	return &FaultInjector{events: sorted}
}

// Step applies every not-yet-applied event with AtBeat <= beat to m and
// returns the number of cores actually failed by this call: an event
// requesting more failures than the machine has healthy cores clamps, and
// the requested-but-impossible failures are not counted.
func (f *FaultInjector) Step(beat uint64, m *Machine) int {
	failed := 0
	for f.next < len(f.events) && f.events[f.next].AtBeat <= beat {
		failed += m.FailCores(f.events[f.next].FailCores)
		f.next++
	}
	return failed
}
