package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

func TestFabricDeliversByTag(t *testing.T) {
	f := NewFabric(3, ProfileLocal, nil)
	defer f.Close()
	rows := tensor.FromRows([][]float32{{1, 2}})
	f.Send(&Message{From: 0, To: 2, Kind: KindRep, Epoch: 5, Layer: 1, Rows: rows})
	f.Send(&Message{From: 1, To: 2, Kind: KindRep, Epoch: 5, Layer: 1, Rows: tensor.FromRows([][]float32{{9, 9}})})
	got := f.Mailbox(2).Wait(KindRep, 5, 1, 0, 0)
	if got.From != 0 || !got.Rows.Equal(rows) {
		t.Fatalf("wrong message: %+v", got)
	}
	got1 := f.Mailbox(2).Wait(KindRep, 5, 1, 0, 1)
	if got1.From != 1 {
		t.Fatal("wrong second message")
	}
}

func TestFabricWaitBeforeSend(t *testing.T) {
	f := NewFabric(2, ProfileLocal, nil)
	defer f.Close()
	done := make(chan *Message)
	go func() {
		done <- f.Mailbox(1).Wait(KindGrad, 0, 2, 0, 0)
	}()
	time.Sleep(5 * time.Millisecond)
	f.Send(&Message{From: 0, To: 1, Kind: KindGrad, Epoch: 0, Layer: 2, Rows: tensor.New(1, 1)})
	select {
	case m := <-done:
		if m.Layer != 2 {
			t.Fatal("wrong layer")
		}
	case <-time.After(time.Second):
		t.Fatal("Wait never returned")
	}
}

// stampedBytes sums the wire bytes of a tracer's delivery stamps.
func stampedBytes(tr *obs.Tracer) int64 {
	var n int64
	for _, d := range tr.Deliveries() {
		n += d.Bytes
	}
	return n
}

func TestFabricSelfSendBypassesNetwork(t *testing.T) {
	tr := obs.NewTracer()
	f := NewFabric(2, ProfileLocal, tr)
	defer f.Close()
	f.Send(&Message{From: 1, To: 1, Kind: KindRep, Rows: tensor.New(4, 4)})
	m := f.Mailbox(1).Wait(KindRep, 0, 0, 0, 1)
	if m == nil {
		t.Fatal("self send lost")
	}
	if n := len(tr.Deliveries()); n != 0 {
		t.Fatalf("self send stamped %d network deliveries", n)
	}
}

func TestFabricByteAccounting(t *testing.T) {
	tr := obs.NewTracer()
	f := NewFabric(2, ProfileLocal, tr)
	defer f.Close()
	msg := &Message{From: 0, To: 1, Kind: KindRep, Vertices: []int32{1, 2}, Rows: tensor.New(2, 3)}
	want := int64(64 + 8 + 24)
	if int64(msg.WireBytes()) != want {
		t.Fatalf("WireBytes = %d, want %d", msg.WireBytes(), want)
	}
	f.Send(msg)
	f.Mailbox(1).Wait(KindRep, 0, 0, 0, 0)
	if ds := tr.Deliveries(); len(ds) != 1 || ds[0].Worker != 1 || ds[0].Bytes != want {
		t.Fatalf("delivery stamps %+v, want one of %d bytes at worker 1", ds, want)
	}
}

func TestFabricThrottlingSlowsDelivery(t *testing.T) {
	// 1 MB at 10 MB/s should take ~200ms (egress + ingress serialisation).
	slow := NetworkProfile{Name: "slow", BytesPerSec: 10e6}
	f := NewFabric(2, slow, nil)
	defer f.Close()
	payload := tensor.New(512, 512) // 1 MiB
	start := time.Now()
	f.Send(&Message{From: 0, To: 1, Kind: KindRep, Rows: payload})
	f.Mailbox(1).Wait(KindRep, 0, 0, 0, 0)
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("throttled delivery took only %v", elapsed)
	}
}

// wireMsg is a from→to message of exactly 1 000 wire bytes: 1 ms at 1e6 B/s.
func wireMsg(from, to int) *Message {
	return &Message{From: from, To: to, Rows: tensor.New(1, 234)}
}

// TestWireSchedule pins the α–β schedule itself, at a fixed send time, so
// no sleep or timer is measured.
func TestWireSchedule(t *testing.T) {
	if b := wireMsg(0, 1).WireBytes(); b != 1000 {
		t.Fatalf("wireMsg is %d bytes, want 1000", b)
	}
	const tx = time.Millisecond // b/β
	const alpha = 100 * time.Microsecond
	ab := NetworkProfile{BytesPerSec: 1e6, Latency: alpha}
	cases := []struct {
		name    string
		profile NetworkProfile
		sends   [][2]int // from, to; all sent at now
		want    []time.Duration
	}{
		{"per-link FIFO and egress serialisation", ab,
			[][2]int{{0, 1}, {0, 1}}, []time.Duration{2*tx + alpha, 3*tx + alpha}},
		{"ingress contention", ab,
			[][2]int{{0, 2}, {1, 2}}, []time.Duration{2*tx + alpha, 3*tx + alpha}},
		{"latency pipelines", NetworkProfile{Latency: alpha},
			[][2]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}}, []time.Duration{alpha, alpha, alpha, alpha}},
		{"disjoint pairs do not interact", ab,
			[][2]int{{0, 1}, {2, 3}, {1, 0}}, []time.Duration{2*tx + alpha, 2*tx + alpha, 2*tx + alpha}},
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newWire(4, c.profile)
			for i, s := range c.sends {
				if got := w.due(wireMsg(s[0], s[1]), now).Sub(now); got != c.want[i] {
					t.Errorf("send %d (%d→%d) due at now+%v, want now+%v", i, s[0], s[1], got, c.want[i])
				}
			}
		})
	}
	t.Run("unthrottled profile has no schedule", func(t *testing.T) {
		if w := newWire(4, ProfileLocal); w != nil {
			t.Fatalf("newWire(ProfileLocal) = %+v, want nil", w)
		}
	})
}

func TestFabricUnthrottledIsFast(t *testing.T) {
	f := NewFabric(2, ProfileLocal, nil)
	defer f.Close()
	payload := tensor.New(512, 512)
	start := time.Now()
	f.Send(&Message{From: 0, To: 1, Kind: KindRep, Rows: payload})
	f.Mailbox(1).Wait(KindRep, 0, 0, 0, 0)
	if e := time.Since(start); e > 100*time.Millisecond {
		t.Fatalf("unthrottled delivery took %v", e)
	}
}

func TestFabricConcurrentAllToAll(t *testing.T) {
	const m = 8
	f := NewFabric(m, ProfileLocal, nil)
	defer f.Close()
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, j := range RingOrder(i, m) {
				rows := tensor.New(1, 1)
				rows.Set(0, 0, float32(i*100+j))
				f.Send(&Message{From: i, To: j, Kind: KindRep, Epoch: 7, Rows: rows})
			}
			for _, j := range RingOrder(i, m) {
				msg := f.Mailbox(i).Wait(KindRep, 7, 0, 0, j)
				if msg.Rows.At(0, 0) != float32(j*100+i) {
					t.Errorf("worker %d got %v from %d", i, msg.Rows.At(0, 0), j)
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestFabricRouteValidation(t *testing.T) {
	f := NewFabric(2, ProfileLocal, nil)
	defer f.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad route")
		}
	}()
	f.Send(&Message{From: 0, To: 5})
}

func TestMailboxDuplicatePanics(t *testing.T) {
	mb := newMailbox(false)
	msg := &Message{From: 0, Kind: KindRep}
	mb.deliver(msg)
	defer func() {
		if recover() == nil {
			t.Fatal("expected duplicate panic")
		}
	}()
	mb.deliver(msg)
}

func TestRingOrderProperties(t *testing.T) {
	for m := 2; m <= 16; m++ {
		for i := 0; i < m; i++ {
			order := RingOrder(i, m)
			if len(order) != m-1 {
				t.Fatalf("ring order length %d", len(order))
			}
			seen := map[int]bool{i: true}
			for _, j := range order {
				if seen[j] {
					t.Fatalf("ring order repeats %d", j)
				}
				seen[j] = true
			}
		}
		// Collision-freedom: at slot j, all workers target distinct peers.
		for j := 0; j < m-1; j++ {
			targets := map[int]bool{}
			for i := 0; i < m; i++ {
				tgt := RingOrder(i, m)[j]
				if targets[tgt] {
					t.Fatalf("m=%d slot %d: two workers target %d", m, j, tgt)
				}
				targets[tgt] = true
			}
		}
	}
}

func TestNaiveOrderCollides(t *testing.T) {
	// Sanity: naive order sends everyone to worker 0 at slot 0 (except 0
	// itself) — the congestion ring scheduling avoids.
	m := 4
	hit0 := 0
	for i := 1; i < m; i++ {
		if NaiveOrder(i, m)[0] == 0 {
			hit0++
		}
	}
	if hit0 != m-1 {
		t.Fatalf("naive order slot0 hits on worker0 = %d", hit0)
	}
}

func TestLockFreeBufferPacksCorrectly(t *testing.T) {
	b := NewEnqueuer(true, []int32{10, 20, 30}, 2)
	b.WriteRowAt(2, []float32{3, 3})
	b.WriteRowAt(0, []float32{1, 1})
	b.WriteRowAt(1, []float32{2, 2})
	rows, ids := b.Finish()
	for i, v := range ids {
		want := float32(v / 10)
		if rows.At(i, 0) != want {
			t.Fatalf("row %d (vertex %d) = %v", i, v, rows.At(i, 0))
		}
	}
}

// A position outside the destination set names no vertex: both buffers
// panic, also over pooled storage, whose capacity runs past the set.
func TestLockFreeBufferUnknownVertexPanics(t *testing.T) {
	for _, arena := range []*tensor.Arena{nil, tensor.NewPool().Arena()} {
		for _, lockFree := range []bool{true, false} {
			func() {
				b := NewEnqueuerArena(lockFree, []int32{1, 2, 3}, 2, arena)
				defer func() {
					if recover() == nil {
						t.Fatalf("lockFree=%v pooled=%v: expected panic", lockFree, arena != nil)
					}
				}()
				b.WriteRowAt(3, []float32{0, 0})
			}()
		}
	}
}

func TestLockedBufferSortsByVertex(t *testing.T) {
	b := NewEnqueuer(false, []int32{30, 10, 20}, 1)
	b.WriteRowAt(0, []float32{3})
	b.WriteRowAt(1, []float32{1})
	b.WriteRowAt(2, []float32{2})
	rows, ids := b.Finish()
	want := []int32{10, 20, 30}
	for i, v := range ids {
		if v != want[i] || rows.At(i, 0) != float32(v/10) {
			t.Fatalf("locked buffer order wrong: %v", ids)
		}
	}
}

// Property: lock-free and locked buffers produce identical packed output for
// any permutation of writes, including under heavy concurrency.
func TestQuickBuffersEquivalent(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%50) + 1
		rng := tensor.NewRNG(seed)
		verts := make([]int32, n)
		for i := range verts {
			verts[i] = int32(i * 3) // ascending unique
		}
		lf := NewEnqueuer(true, verts, 4)
		lk := NewEnqueuer(false, verts, 4)
		perm := rng.Perm(n)
		var wg sync.WaitGroup
		for _, p := range perm {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				row := []float32{float32(p), float32(p * 2), float32(p * 3), float32(p * 4)}
				lf.WriteRowAt(p, row)
				lk.WriteRowAt(p, row)
			}(p)
		}
		wg.Wait()
		r1, v1 := lf.Finish()
		r2, v2 := lk.Finish()
		if len(v1) != len(v2) {
			return false
		}
		for i := range v1 {
			if v1[i] != v2[i] {
				return false
			}
		}
		return r1.Equal(r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNewEnqueuerSelects(t *testing.T) {
	if _, ok := NewEnqueuer(true, []int32{1}, 2).(*LockFreeBuffer); !ok {
		t.Fatal("lockFree=true gave wrong type")
	}
	if _, ok := NewEnqueuer(false, []int32{1}, 2).(*LockedBuffer); !ok {
		t.Fatal("lockFree=false gave wrong type")
	}
}

// Benchmark the two buffer strategies under parallel writes: the lock-free
// variant should win clearly, which is the paper's "L" ablation.
func benchmarkBuffer(b *testing.B, lockFree bool) {
	const n, dim = 4096, 64
	verts := make([]int32, n)
	for i := range verts {
		verts[i] = int32(i)
	}
	row := make([]float32, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := NewEnqueuer(lockFree, verts, dim)
		tensor.ParallelRows(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				buf.WriteRowAt(v, row)
			}
		})
		buf.Finish()
	}
}

func BenchmarkLockFreeBuffer(b *testing.B) { benchmarkBuffer(b, true) }
func BenchmarkLockedBuffer(b *testing.B)   { benchmarkBuffer(b, false) }

// ---- Failure injection ----

func TestSendOnClosedFabricPanics(t *testing.T) {
	f := NewFabric(2, ProfileLocal, nil)
	f.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on closed fabric")
		}
	}()
	f.Send(&Message{From: 0, To: 1, Kind: KindRep, Rows: tensor.New(1, 1)})
}

func TestCloseDropsInFlightQuietly(t *testing.T) {
	// Messages still on the wire when the fabric closes are dropped: Close
	// returns without waiting for them, and none is counted or delivered
	// after it.
	slow := NetworkProfile{Name: "slow", BytesPerSec: 1e6}
	tr := obs.NewTracer()
	f := NewFabric(2, slow, tr)
	tx := time.Duration((&Message{Rows: tensor.New(64, 64)}).WireBytes()) * time.Microsecond // b/β at 1e6 B/s
	start := time.Now()
	for i := 0; i < 10; i++ {
		f.Send(&Message{From: 0, To: 1, Kind: KindRep, Seq: i, Rows: tensor.New(64, 64)})
	}
	last := start.Add(11 * tx) // the tenth message's due time, or later
	f.Close()
	if closedAt := time.Now(); closedAt.After(last) {
		t.Fatalf("Close returned %v after the last message was due", closedAt.Sub(last))
	}
	mb := f.Mailbox(1)
	pending := func() int {
		mb.mu.Lock()
		defer mb.mu.Unlock()
		return len(mb.pending)
	}
	recv, held := stampedBytes(tr), pending()
	time.Sleep(time.Until(last) + 20*time.Millisecond)
	if got := stampedBytes(tr); got != recv {
		t.Fatalf("delivery stamps moved after Close: %d -> %d bytes", recv, got)
	}
	if got := pending(); got != held {
		t.Fatalf("mailbox received %d deliveries after Close", got-held)
	}
}

func TestMailboxDeliveryAfterCloseIsDropped(t *testing.T) {
	mb := newMailbox(false)
	mb.close()
	mb.deliver(&Message{From: 0, Kind: KindRep}) // must not panic
}

func TestRingAllReduceSums(t *testing.T) {
	for _, m := range []int{2, 3, 5, 8} {
		f := NewFabric(m, ProfileLocal, nil)
		bufs := make([][]float32, m)
		const n = 37 // deliberately not divisible by m
		want := make([]float32, n)
		for i := range bufs {
			bufs[i] = make([]float32, n)
			for k := range bufs[i] {
				bufs[i][k] = float32(i*100 + k)
				want[k] += bufs[i][k]
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < m; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				RingAllReduce(f, i, m, 7, bufs[i], nil)
			}(i)
		}
		wg.Wait()
		for i := 0; i < m; i++ {
			for k := range want {
				if bufs[i][k] != want[k] {
					t.Fatalf("m=%d worker %d elem %d: %v want %v", m, i, k, bufs[i][k], want[k])
				}
			}
		}
		f.Close()
	}
}

func TestRingAllReduceSingleWorkerNoOp(t *testing.T) {
	f := NewFabric(1, ProfileLocal, nil)
	defer f.Close()
	buf := []float32{1, 2, 3}
	RingAllReduce(f, 0, 1, 0, buf, nil)
	if buf[0] != 1 || buf[2] != 3 {
		t.Fatal("single-worker allreduce mutated buffer")
	}
}

// Property: ring all-reduce produces bit-identical buffers on all workers
// for random inputs (the replica-sync invariant).
func TestQuickRingAllReduceBitIdentical(t *testing.T) {
	f := func(seed uint64, m8, n8 uint8) bool {
		m := int(m8%6) + 2
		n := int(n8%50) + 1
		rng := tensor.NewRNG(seed)
		fab := NewFabric(m, ProfileLocal, nil)
		defer fab.Close()
		bufs := make([][]float32, m)
		for i := range bufs {
			bufs[i] = make([]float32, n)
			for k := range bufs[i] {
				bufs[i][k] = rng.Float32()*2 - 1
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < m; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				RingAllReduce(fab, i, m, 3, bufs[i], nil)
			}(i)
		}
		wg.Wait()
		for i := 1; i < m; i++ {
			for k := range bufs[0] {
				if bufs[i][k] != bufs[0][k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// ---- Wire codec & TCP fabric ----

func TestCodecRoundTrip(t *testing.T) {
	msgs := []*Message{
		{From: 1, To: 2, Kind: KindRep, Epoch: 7, Layer: 2, Seq: 3,
			Vertices: []int32{5, 9, 100}, Rows: tensor.FromRows([][]float32{{1.5, -2}, {0, 3e9}, {-0.25, 1e-9}})},
		{From: 0, To: 1, Kind: KindGrad, Epoch: -1, Layer: 0, Seq: 0},
		{From: 3, To: 0, Kind: KindAllReduce, Epoch: 1 << 40, Vertices: nil, Rows: tensor.New(0, 5)},
		{From: 2, To: 1, Kind: KindGrad, Epoch: 3, Layer: 2, Vertices: []int32{5},
			Packed: []uint32{0x80000000, 0x7FC00001, 1}},
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, m := range msgs {
		if err := encodeMessage(w, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	for i, want := range msgs {
		got, err := decodeMessage(r)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got.From != want.From || got.To != want.To || got.Kind != want.Kind ||
			got.Epoch != want.Epoch || got.Layer != want.Layer || got.Seq != want.Seq {
			t.Fatalf("msg %d header: %+v vs %+v", i, got, want)
		}
		if len(got.Vertices) != len(want.Vertices) {
			t.Fatalf("msg %d vertices: %v vs %v", i, got.Vertices, want.Vertices)
		}
		for k := range want.Vertices {
			if got.Vertices[k] != want.Vertices[k] {
				t.Fatalf("msg %d vertex %d", i, k)
			}
		}
		if (got.Rows == nil) != (want.Rows == nil) {
			t.Fatalf("msg %d rows nil mismatch", i)
		}
		if want.Rows != nil && !got.Rows.Equal(want.Rows) {
			t.Fatalf("msg %d rows differ", i)
		}
		if !slices.Equal(got.Packed, want.Packed) {
			t.Fatalf("msg %d packed words: %v vs %v", i, got.Packed, want.Packed)
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	r := bufio.NewReader(bytes.NewReader([]byte("this is not a message at all........................")))
	if _, err := decodeMessage(r); err == nil {
		t.Fatal("expected magic error")
	}
	// Truncated stream after a valid header start.
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := encodeMessage(w, &Message{From: 0, To: 1, Rows: tensor.New(4, 4)}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-8]
	if _, err := decodeMessage(bufio.NewReader(bytes.NewReader(trunc))); err == nil {
		t.Fatal("expected truncation error")
	}
	// A v1–v4 header (the retired "NTS\x01"–"NTS\x04" magics over an
	// otherwise well-formed message) is a bad magic like any other, not a
	// second dialect.
	for _, magic := range []uint32{0x4E545301, 0x4E545302, 0x4E545303, 0x4E545304} {
		old := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint32(old, magic)
		if _, err := decodeMessage(bufio.NewReader(bytes.NewReader(old))); err == nil || !strings.Contains(err.Error(), "bad wire magic") {
			t.Fatalf("magic %#x: err = %v, want bad wire magic", magic, err)
		}
	}
}

// Property: codec round-trips arbitrary messages bit-exactly.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed uint64, kind uint8, nv, r8, c8 uint8) bool {
		rng := tensor.NewRNG(seed)
		m := &Message{
			From: int(rng.Intn(16)), To: int(rng.Intn(16)), Kind: MsgKind(kind % 5),
			Epoch: int(rng.Uint64() % (1 << 30)), Layer: int(rng.Intn(8)), Seq: int(rng.Intn(64)),
		}
		for i := 0; i < int(nv%20); i++ {
			m.Vertices = append(m.Vertices, int32(rng.Uint64()))
		}
		rows, cols := int(r8%8), int(c8%8)
		if rows*cols > 0 {
			m.Rows = tensor.RandNormal(rows, cols, 0, 100, rng)
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if encodeMessage(w, m) != nil || w.Flush() != nil {
			return false
		}
		got, err := decodeMessage(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		if got.From != m.From || got.Kind != m.Kind || got.Epoch != m.Epoch ||
			len(got.Vertices) != len(m.Vertices) {
			return false
		}
		if m.Rows != nil && !got.Rows.Equal(m.Rows) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPFabricAllToAll(t *testing.T) {
	const m = 5
	tr := obs.NewTracer()
	f, err := NewTCPFabric(m, ProfileLocal, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumWorkers() != m {
		t.Fatal("worker count")
	}
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, j := range RingOrder(i, m) {
				rows := tensor.New(2, 3)
				rows.Fill(float32(i*100 + j))
				f.Send(&Message{From: i, To: j, Kind: KindRep, Epoch: 3,
					Vertices: []int32{int32(i)}, Rows: rows})
			}
			for _, j := range RingOrder(i, m) {
				msg := f.Mailbox(i).Wait(KindRep, 3, 0, 0, j)
				if msg.Rows.At(0, 0) != float32(j*100+i) || msg.Vertices[0] != int32(j) {
					t.Errorf("worker %d bad message from %d", i, j)
				}
			}
		}(i)
	}
	wg.Wait()
	// Each receiver stamps a message before its mailbox sees it.
	perWorker := map[int]int{}
	for _, d := range tr.Deliveries() {
		perWorker[d.Worker]++
	}
	want := int64(m * (m - 1) * (&Message{Vertices: []int32{0}, Rows: tensor.New(2, 3)}).WireBytes())
	if got := stampedBytes(tr); got != want || len(perWorker) != m || perWorker[0] != m-1 {
		t.Fatalf("delivery stamps: %d bytes over %v, want %d bytes, %d per worker", got, perWorker, want, m-1)
	}
}

func TestTCPFabricSelfSend(t *testing.T) {
	f, err := NewTCPFabric(2, ProfileLocal, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Send(&Message{From: 1, To: 1, Kind: KindRep, Rows: tensor.New(1, 1)})
	if f.Mailbox(1).Wait(KindRep, 0, 0, 0, 1) == nil {
		t.Fatal("self send lost")
	}
}

// TestTCPFabricCarriesPackedRows: rows packed by PackRows cross real
// sockets and unpack to the sent bits, and the message is charged for the
// packed words only.
func TestTCPFabricCarriesPackedRows(t *testing.T) {
	f, err := NewTCPFabric(2, ProfileLocal, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := tensor.FromSlice(2, 4, []float32{0, 1.5, 0, 0, float32(math.Inf(-1)), 0, 0, 2})
	sent := &Message{From: 0, To: 1, Kind: KindRep, Epoch: 1, Layer: 2,
		Vertices: []int32{3, 4}, Packed: PackRows(rows, nil)}
	f.Send(sent)
	msg := f.Mailbox(1).Wait(KindRep, 1, 2, 0, 0)
	got, err := UnpackRows(msg.Packed, 2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Bits(), rows.Bits()) {
		t.Fatalf("received %v, sent %v", got.Data(), rows.Data())
	}
	dense := &Message{Vertices: sent.Vertices, Rows: rows}
	if msg.WireBytes() != dense.WireBytes()-4*(8-2-3) {
		t.Fatalf("packed message is %d bytes, the dense one %d", msg.WireBytes(), dense.WireBytes())
	}
}

func TestTCPRingAllReduce(t *testing.T) {
	const m = 4
	f, err := NewTCPFabric(m, ProfileLocal, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bufs := make([][]float32, m)
	want := make([]float32, 10)
	for i := range bufs {
		bufs[i] = make([]float32, 10)
		for k := range bufs[i] {
			bufs[i][k] = float32(i + k)
			want[k] += bufs[i][k]
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			RingAllReduce(f, i, m, 9, bufs[i], nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < m; i++ {
		for k := range want {
			if bufs[i][k] != want[k] {
				t.Fatalf("worker %d elem %d: %v want %v", i, k, bufs[i][k], want[k])
			}
		}
	}
}

func TestTCPFabricWaitsForDue(t *testing.T) {
	// A fresh wire makes the first message due 2b/β + α after its send.
	const alpha = 20 * time.Millisecond
	f, err := NewTCPFabric(2, NetworkProfile{BytesPerSec: 1e6, Latency: alpha}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	f.Send(wireMsg(0, 1))
	f.Mailbox(1).Wait(KindRep, 0, 0, 0, 0)
	if elapsed, due := time.Since(start), 2*time.Millisecond+alpha; elapsed < due {
		t.Fatalf("delivered %v after Send, before its due time %v", elapsed, due)
	}
}

func TestTCPFabricDoubleCloseSafe(t *testing.T) {
	f, err := NewTCPFabric(2, ProfileLocal, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	f.Close() // idempotent
}

// TestProfileNamed: every preset resolves by its own name, and a name outside
// the table is an error.
func TestProfileNamed(t *testing.T) {
	for _, p := range Profiles() {
		got, err := ProfileNamed(p.Name)
		if err != nil || got != p {
			t.Fatalf("ProfileNamed(%q) = %+v, %v; want %+v", p.Name, got, err, p)
		}
	}
	for _, name := range []string{"", "wifi", "ECS"} {
		if _, err := ProfileNamed(name); err == nil {
			t.Fatalf("ProfileNamed(%q) accepted", name)
		}
	}
}
