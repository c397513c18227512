package comm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"neutronstar/internal/tensor"
)

func TestParseFaultSpec(t *testing.T) {
	s, err := ParseFaultSpec("drop=0.05, jitter=2ms, rep.drop=0.2, grad.dup=0.5, seed=7, retries=4, timeout=1ms")
	if err != nil {
		t.Fatal(err)
	}
	if s.Default.Drop != 0.05 || s.Default.Jitter != 2*time.Millisecond {
		t.Fatalf("baseline rule: %+v", s.Default)
	}
	if r := s.Rule(KindRep); r.Drop != 0.2 || r.Jitter != 2*time.Millisecond {
		t.Fatalf("rep override must keep the baseline jitter: %+v", r)
	}
	if r := s.Rule(KindGrad); r.Dup != 0.5 || r.Drop != 0.05 {
		t.Fatalf("grad override: %+v", r)
	}
	if r := s.Rule(KindAllReduce); r != s.Default {
		t.Fatalf("unoverridden kind should get the baseline, got %+v", r)
	}
	if s.Seed != 7 || s.MaxRetries != 4 || s.RetryTimeout != time.Millisecond {
		t.Fatalf("globals: %+v", s)
	}

	// Clause order must not matter for overrides.
	s2, err := ParseFaultSpec("rep.drop=0.2,drop=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Rule(KindRep).Drop != 0.2 || s2.Rule(KindGrad).Drop != 0.05 {
		t.Fatalf("order-dependent overrides: %+v", s2)
	}
}

func TestParseFaultSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"drop",
		"drop=1.5",
		"drop=-0.1",
		"dup=2",
		"delay=-1ms",
		"bogus=1",
		"tcp.drop=0.1",
		"block.drop=0.1",
		"rep.seed=1",
		"retries=0",
		"timeout=0s",
		"seed=abc",
		"drop=NaN",
		"dup=NaN",
		"rep.drop=NaN",
		"grad.dup=NaN",
		"drop=+Inf",
		"dup=-Inf",
	} {
		if _, err := ParseFaultSpec(spec); err == nil {
			t.Errorf("spec %q was accepted", spec)
		}
	}
}

// faulted returns the unthrottled profile carrying the given fault spec.
func faulted(t testing.TB, spec string) NetworkProfile {
	t.Helper()
	s, err := ParseFaultSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return NetworkProfile{Name: "faulted", Fault: s}
}

// sendAll pushes n uniquely keyed messages 0->1 and returns after they are
// all matched by the receiver.
func sendAll(t *testing.T, net Network, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rows := tensor.FromSlice(1, 2, []float32{float32(i), float32(-i)})
		net.Send(&Message{From: 0, To: 1, Kind: KindRep, Epoch: 1, Layer: 1, Seq: i, Rows: rows})
	}
	for i := 0; i < n; i++ {
		msg := net.Mailbox(1).Wait(KindRep, 1, 1, i, 0)
		if msg.Rows.At(0, 0) != float32(i) {
			t.Fatalf("message %d: payload %v", i, msg.Rows.At(0, 0))
		}
	}
}

func TestFaultyFabricDeliversEverythingExactlyOnce(t *testing.T) {
	f := NewFabric(2, faulted(t, "drop=0.3,dup=0.3,jitter=200us,seed=11,timeout=100us"), nil)

	dropped := obsFaultDropped.With("rep")
	duped := obsFaultDuplicated.With("rep")
	dedup := obsDedupDropped
	d0, p0, x0 := dropped.Value(), duped.Value(), dedup.Value()

	const n = 200
	sendAll(t, f, n)
	// A duplicate reaches the mailbox in the timer callback that delivered
	// its original, and Close waits out a callback in progress: past it,
	// every duplicate of a delivered message has met dedup.
	f.Close()
	drops, dups, absorbed := dropped.Value()-d0, duped.Value()-p0, dedup.Value()-x0

	if drops == 0 {
		t.Error("30% drop over 200 messages injected no drops")
	}
	if dups == 0 {
		t.Error("30% dup over 200 messages injected no duplicates")
	}
	// Every injected duplicate must be absorbed by mailbox dedup — none may
	// surface as a protocol message. (Waits above consumed exactly one per
	// key; this checks the duplicates were counted as dropped-by-dedup.)
	if absorbed != dups {
		t.Errorf("injected %v duplicates but dedup absorbed %v", dups, absorbed)
	}
}

func TestFaultyFabricExhaustedRetriesStillDeliver(t *testing.T) {
	// drop=0.99 with 3 retries: nearly every message runs out of budget and
	// must be force-delivered; nothing may deadlock.
	f := NewFabric(2, faulted(t, "drop=0.99,retries=3,timeout=50us,seed=3"), nil)
	defer f.Close()
	e0 := obsFaultExhausted.Value()
	sendAll(t, f, 50)
	if obsFaultExhausted.Value() == e0 {
		t.Error("99% drop with 3 retries never exhausted a retry budget")
	}
}

func TestFaultyFabricDeterministicPattern(t *testing.T) {
	run := func() (drops, dups float64) {
		f := NewFabric(2, faulted(t, "drop=0.5,dup=0.2,seed=42,timeout=50us"), nil)
		defer f.Close()
		d0 := obsFaultDropped.With("rep").Value()
		p0 := obsFaultDuplicated.With("rep").Value()
		sendAll(t, f, 100)
		// Both counters are decided at Send.
		return obsFaultDropped.With("rep").Value() - d0, obsFaultDuplicated.With("rep").Value() - p0
	}
	d1, p1 := run()
	d2, p2 := run()
	if d1 != d2 || p1 != p2 {
		t.Fatalf("fault pattern not deterministic: run1 (%v drops, %v dups), run2 (%v, %v)", d1, p1, d2, p2)
	}
}

// TestFaultFateIsPure pins FaultSpec.fate to its draw order: one drop draw
// per attempt, then jitter, then dup, from the message's own RNG.
func TestFaultFateIsPure(t *testing.T) {
	spec, err := ParseFaultSpec("drop=0.5,dup=0.5,delay=1ms,jitter=1ms,retries=3,timeout=1ms,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 50; seq++ {
		msg := &Message{From: 1, To: 2, Kind: KindGrad, Epoch: 4, Layer: 1, Seq: seq}
		rng := tensor.NewRNG(spec.msgSeed(msg))
		var want fate
		for want.lost < 3 && rng.Float64() < 0.5 {
			want.backoff += time.Millisecond << want.lost
			want.lost++
		}
		want.exhausted = want.lost == 3
		want.injected = time.Millisecond + time.Duration(rng.Float64()*float64(time.Millisecond))
		want.dup = rng.Float64() < 0.5
		if got := spec.fate(msg); got != want || spec.fate(msg) != got {
			t.Fatalf("seq %d: fate %+v, want %+v every time", seq, got, want)
		}
	}
	if ft := spec.fate(&Message{Kind: KindRep}); ft.delay() != ft.backoff+ft.injected {
		t.Fatalf("delay %v is not backoff %v + injected %v", ft.delay(), ft.backoff, ft.injected)
	}
}

func TestFaultyFabricSelfSendBypassesFaults(t *testing.T) {
	f := NewFabric(2, faulted(t, "drop=0.999,retries=2,timeout=10ms,seed=1"), nil)
	defer f.Close()
	start := time.Now()
	for i := 0; i < 50; i++ {
		f.Send(&Message{From: 0, To: 0, Kind: KindRep, Epoch: 1, Layer: 1, Seq: i})
		f.Mailbox(0).Wait(KindRep, 1, 1, i, 0)
	}
	// 50 self-sends through a 99.9%-drop fabric with 10ms timeouts would
	// take seconds if faults applied; locally they are instantaneous.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("self-sends took %v — fault injection applied to local delivery", elapsed)
	}
}

func TestMailboxDedupPanicsStayForNonFaultyFabrics(t *testing.T) {
	mb := NewFabric(2, ProfileLocal, nil).Mailbox(1)
	msg := &Message{From: 0, To: 1, Kind: KindRep, Epoch: 1, Layer: 1}
	mb.deliver(msg)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate delivery without dedup did not panic")
		}
	}()
	mb.deliver(msg)
}

func TestFaultSpecString(t *testing.T) {
	s, err := ParseFaultSpec("drop=0.05,rep.dup=0.1,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	str := s.String()
	for _, want := range []string{"drop=0.05", "rep.dup=0.1", "seed=9"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
}

// FuzzParseFaultSpec feeds arbitrary specs to the parser: it must never
// panic, and every spec it accepts must hold rules inside the documented
// ranges (a NaN probability is inside none of them).
func FuzzParseFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"drop=0.05,jitter=2ms,seed=7",
		"rep.drop=0.2,grad.dup=0.1,delay=500us",
		"drop=0.01,allreduce.drop=0,retries=6,timeout=1ms",
		"drop=NaN", "dup=NaN", "rep.drop=NaN", "slice.dup=NaN",
		"drop=+Inf", "dup=-Inf", "drop=1", "retries=0", "timeout=-1s",
		"drop", ",,", "=", "rep.=1", ".drop=0.1", "rep.seed=1", "delay=1e9h",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		check := func(who string, r FaultRule) {
			if !(r.Drop >= 0 && r.Drop < 1) || !(r.Dup >= 0 && r.Dup <= 1) || r.Delay < 0 || r.Jitter < 0 {
				t.Fatalf("%q accepted with %s rule %+v", spec, who, r)
			}
		}
		check("baseline", s.Default)
		for k, r := range s.PerKind {
			check(fmt.Sprint("kind ", k), r)
		}
		if s.MaxRetries < 1 || s.RetryTimeout <= 0 {
			t.Fatalf("%q accepted with retries=%d timeout=%v", spec, s.MaxRetries, s.RetryTimeout)
		}
	})
}
