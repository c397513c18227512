package comm

import (
	"testing"

	"neutronstar/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind
// (leakcheck.Main: the unstoppable os/signal loop a fuzz run starts is not
// counted).
func TestMain(m *testing.M) { leakcheck.Main(m) }
