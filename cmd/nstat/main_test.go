package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"neutronstar/internal/obs"
)

// TestRunRejectsBadFlags: a flag error or a non-positive duration exits 2
// with a message, before any poll (a zero -interval used to panic in
// time.NewTicker).
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		msg  string // substring of stderr
	}{
		{[]string{"-interval", "0"}, "-interval must be positive, got 0s"},
		{[]string{"-interval", "-1s"}, "-interval must be positive, got -1s"},
		{[]string{"-window", "0"}, "-window must be positive, got 0s"},
		{[]string{"-window", "-2m"}, "-window must be positive, got -2m0s"},
		{[]string{"-timeout", "0"}, "-timeout must be positive, got 0s"},
		{[]string{"-timeout", "-5s"}, "-timeout must be positive, got -5s"},
		{[]string{"-interval", "soon"}, `invalid value "soon" for flag -interval`},
		{[]string{"-refresh", "1s"}, "flag provided but not defined: -refresh"},
	} {
		var stdout, stderr bytes.Buffer
		// -once, so that a check that lets the flag through fails on the
		// unreachable address instead of polling forever.
		args := append([]string{"-once", "-addr", "127.0.0.1:1"}, c.args...)
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", c.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("%v: stderr %q does not contain %q", c.args, stderr.String(), c.msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: rendered %q", c.args, stdout.String())
		}
	}
}

// TestRunOnceRendersAlerts: a target that serves only /healthwatch (no
// /timeline, no /stats) still gets a frame, with its alerts section.
func TestRunOnceRendersAlerts(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthwatch", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(obs.HealthReport{
			LastEpoch: 7,
			Alerts:    []obs.Alert{{Rule: "slo_p99", Message: "p99 3.1s over 2s"}},
		})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-once", "-addr", strings.TrimPrefix(ts.URL, "http://")}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr.String())
	}
	frame := stdout.String()
	for _, want := range []string{"timeline unavailable", "ALERTS (1 total)", "[slo_p99] p99 3.1s over 2s"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame does not contain %q:\n%s", want, frame)
		}
	}
}

// TestRunOnceFailsWithoutEndpoints: a target that answers none of the three
// endpoints is an error, exit 1.
func TestRunOnceFailsWithoutEndpoints(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-once", "-addr", strings.TrimPrefix(ts.URL, "http://")}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stdout: %s)", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "no endpoint answered") {
		t.Errorf("stderr %q does not name the failure", stderr.String())
	}
}
