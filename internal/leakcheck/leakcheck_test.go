package leakcheck

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"testing"
)

func TestMain(m *testing.M) { Main(m) }

// helper reports whether this test binary was started by runHelper to run
// the named test alone; in any other run the helper tests do nothing.
func helper(name string) bool {
	return flag.Lookup("test.run").Value.String() == "^"+name+"$"
}

// runHelper runs this test binary on the named helper test and returns its
// combined output and whether it exited 0.
func runHelper(t *testing.T, name string) (string, bool) {
	t.Helper()
	out, err := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.count=1").CombinedOutput()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatalf("running %s: %v", name, err)
	}
	return string(out), err == nil
}

var block = make(chan struct{})

func TestHelperLeaksAGoroutine(t *testing.T) {
	if !helper(t.Name()) {
		t.Skip("helper for TestRealLeakFailsThePackage")
	}
	go func() { <-block }()
}

func TestHelperStartsTheSignalLoop(t *testing.T) {
	if !helper(t.Name()) {
		t.Skip("helper for TestSignalLoopIsNotALeak")
	}
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt)
	signal.Stop(c)
	if !bytes.Contains(stacks(), []byte("\nos/signal.loop(")) {
		t.Fatal("signal.Notify started no os/signal.loop goroutine")
	}
}

// TestRealLeakFailsThePackage: a passing test binary that leaves one
// goroutine blocked behind it exits 1 and says so.
func TestRealLeakFailsThePackage(t *testing.T) {
	out, ok := runHelper(t, "TestHelperLeaksAGoroutine")
	if ok || !strings.Contains(out, "goroutine leak: ") || !strings.Contains(out, "TestHelperLeaksAGoroutine.func1") {
		t.Fatalf("a leaked goroutine did not fail the package (exit 0: %v):\n%s", ok, out)
	}
}

// TestSignalLoopIsNotALeak: the os/signal loop a fuzzing coordinator starts,
// and nothing can stop, leaves a passing test binary passing.
func TestSignalLoopIsNotALeak(t *testing.T) {
	if out, ok := runHelper(t, "TestHelperStartsTheSignalLoop"); !ok {
		t.Fatalf("the os/signal loop failed the package:\n%s", out)
	}
}
