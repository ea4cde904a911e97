package scheduler_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaves goroutines running — a
// scheduler's Run loop must unwind on cancel.
func TestMain(m *testing.M) { leakcheck.Main(m) }
