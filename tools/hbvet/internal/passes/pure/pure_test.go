package pure_test

import (
	"testing"

	"repro/tools/hbvet/internal/analysistest"
	"repro/tools/hbvet/internal/passes/pure"
)

func TestPure(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), pure.Analyzer, "p", "q")
}
