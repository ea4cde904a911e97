package deadapi_test

import (
	"testing"

	"repro/tools/hbvet/internal/analysistest"
	"repro/tools/hbvet/internal/passes/deadapi"
)

// TestDeadapi loads api together with app, its only user, so the index
// sees every use the analyzer counts and every one it must not.
func TestDeadapi(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), deadapi.Analyzer, "api", "app")
}
