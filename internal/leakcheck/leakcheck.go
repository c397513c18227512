// Package leakcheck fails a test binary whose tests leave goroutines behind.
// Packages whose tests start fabrics and engines — timers, receive loops,
// worker goroutines — call Main from their TestMain.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle is how long Main waits for the count to fall back: timers of
// messages dropped by a closed fabric may still be pending.
const settle = 3 * time.Second

// Main runs m's tests and exits with their status — or with 1 when they
// passed but Count has not fallen back to its value before them within
// settle, after printing every goroutine's stack.
func Main(m *testing.M) {
	before := Count()
	code := m.Run()
	if after := Settle(before, settle); code == 0 && after > before {
		fmt.Fprintf(os.Stderr, "goroutine leak: %d before the tests, %d after\n%s", before, after, stacks())
		code = 1
	}
	os.Exit(code)
}

// Settle polls Count every 10 ms until it is at most before or wait has
// passed, and returns the last count.
func Settle(before int, wait time.Duration) int {
	n := Count()
	for deadline := time.Now().Add(wait); n > before && time.Now().Before(deadline); n = Count() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// Count is runtime.NumGoroutine less the goroutines running os/signal's
// receive loop. The first signal.Notify in a process starts that loop and
// nothing stops it; the fuzzing coordinator calls Notify, so without this
// every fuzz run would read as a leak.
func Count() int {
	return runtime.NumGoroutine() - bytes.Count(stacks(), []byte("\nos/signal.loop("))
}

// stacks is runtime.Stack of every goroutine, whatever its length.
func stacks() []byte {
	buf := make([]byte, 64<<10)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}
