package wallclock_test

import (
	"testing"

	"repro/tools/hbvet/internal/analysistest"
	"repro/tools/hbvet/internal/passes/wallclock"
)

func TestWallclock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), wallclock.Analyzer, "a", "clock/inside")
}
