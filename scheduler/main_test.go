package scheduler_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaves goroutines running — a
// hub's Run loop driving a scheduler must unwind on cancel.
func TestMain(m *testing.M) { leakcheck.Main(m) }
