package comm

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines behind. Timers
// of messages dropped by a closed fabric may still be pending, so it waits
// up to 3 s for the count to return to where it started.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	for deadline := time.Now().Add(3 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); code == 0 && after > before {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "goroutine leak: %d before the tests, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
		code = 1
	}
	os.Exit(code)
}
