package control

// AmdahlPlanner is a model-based allocation policy: instead of stepping one
// core at a time (Stepper), it inverts an Amdahl-law model of the
// application — estimated online from the observed rate at the current
// allocation — and jumps directly to the smallest core count predicted to
// meet the target window. This is the direction the authors' follow-on
// self-aware-computing work took (model-based and control-theoretic
// resource allocators seeded by the Heartbeats signal); here it serves as
// the ablation partner for the paper's threshold policy.
//
// It satisfies the scheduler package's Policy interface.
type AmdahlPlanner struct {
	// ParallelFrac is the assumed Amdahl parallel fraction of the
	// application in [0, 1).
	ParallelFrac float64
	// TargetMin and TargetMax delimit the goal window in beats/s.
	TargetMin, TargetMax float64
}

// amdahlSpeedup mirrors sim.Speedup without importing it (control stays
// dependency-free).
func amdahlSpeedup(cores int, p float64) float64 {
	if cores <= 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return 1 / ((1 - p) + p/float64(cores))
}

// DesiredCores implements the scheduler Policy shape: estimate the
// single-core base rate from the current observation, then return the
// smallest allocation whose predicted rate lands inside
// [TargetMin, TargetMax] — TargetMax participates in the objective, so a
// rate above the window steps down to the smallest in-window count
// rather than merely the smallest count reaching TargetMin. When the
// model's speedup steps straddle the window (no allocation is predicted
// in-window), the smallest allocation meeting TargetMin is chosen: a
// fast-but-met goal beats an unmet one — preferring the near miss below
// would pin the application under its advertised minimum (and oscillate,
// since the next decision at the lower count faces the inverse choice).
// If even max cores cannot reach TargetMin, max is returned and the
// application must adapt itself instead. TargetMax <= 0 means no upper
// bound.
func (a *AmdahlPlanner) DesiredCores(rate float64, rateOK bool, current, max int) int {
	if !rateOK || rate <= 0 || current <= 0 {
		return current
	}
	if rate >= a.TargetMin && (a.TargetMax <= 0 || rate <= a.TargetMax) {
		return current // already in window; hold (minimum-resource goal)
	}
	base := rate / amdahlSpeedup(current, a.ParallelFrac)
	met := 0 // smallest count predicted to reach TargetMin, if any
	for c := 1; c <= max; c++ {
		predicted := base * amdahlSpeedup(c, a.ParallelFrac)
		if predicted < a.TargetMin {
			continue
		}
		if a.TargetMax <= 0 || predicted <= a.TargetMax {
			return c // smallest in-window allocation
		}
		if met == 0 {
			met = c
		}
		// Larger counts only predict faster: no in-window count remains.
		break
	}
	if met > 0 {
		return met
	}
	return max
}
