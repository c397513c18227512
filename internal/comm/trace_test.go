package comm

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"neutronstar/internal/tensor"
)

func TestCodecTraceRoundTrip(t *testing.T) {
	want := TraceContext{TraceID: 7<<32 | 12, SpanID: 99, Parent: 98,
		SentUnixNano: 1_754_000_000_000_000_000}
	msg := &Message{From: 1, To: 2, Kind: KindRep, Epoch: 12, Layer: 1, Seq: 4,
		Vertices: []int32{3, 5}, Rows: tensor.FromSlice(2, 2, []float32{1, 2, 3, 4}),
		Trace: want}
	got, err := decodeMessage(bufio.NewReader(bytes.NewReader(encodeToBytes(t, msg))))
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != want {
		t.Fatalf("trace round trip: %+v, want %+v", got.Trace, want)
	}
}

// TestCodecRejectsTruncatedTraceBlock: a v2 header promises a trace block;
// a stream that ends inside it must fail with io.ErrUnexpectedEOF rather
// than zero-padding the missing fields.
func TestCodecRejectsTruncatedTraceBlock(t *testing.T) {
	msg := &Message{From: 0, To: 1, Kind: KindRep, Epoch: 1, Layer: 1, Seq: 0,
		Trace: TraceContext{TraceID: 42, SpanID: 7}}
	full := encodeToBytes(t, msg)
	for _, cut := range []int{41, 41 + 1, 41 + traceBlockLen - 1} {
		_, err := decodeMessage(bufio.NewReader(bytes.NewReader(full[:cut])))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// traceCapture wraps a Network and records the TraceContext of every message
// the wrapped fabric is asked to deliver — including injected duplicates.
type traceCapture struct {
	Network
	mu   sync.Mutex
	sent []TraceContext
}

func (c *traceCapture) Send(msg *Message) {
	c.mu.Lock()
	c.sent = append(c.sent, msg.Trace)
	c.mu.Unlock()
	c.Network.Send(msg)
}

// TestFaultyFabricDuplicateKeepsTrace pins the causal contract for
// retransmission: an injected duplicate is a struct copy of the original, so
// it carries the original's trace context — the duplicate is the same causal
// event on the wire, not a new one.
func TestFaultyFabricDuplicateKeepsTrace(t *testing.T) {
	spec, err := ParseFaultSpec("dup=1,seed=9,timeout=50us")
	if err != nil {
		t.Fatal(err)
	}
	cap := &traceCapture{Network: NewFabric(2, ProfileLocal, nil)}
	f := NewFaultyFabric(cap, spec)

	want := TraceContext{TraceID: 3<<32 | 1, SpanID: 11, Parent: 10,
		SentUnixNano: 1_700_000_000_000_000_001}
	f.Send(&Message{From: 0, To: 1, Kind: KindRep, Epoch: 1, Layer: 1, Seq: 0,
		Trace: want})
	f.Mailbox(1).Wait(KindRep, 1, 1, 0, 0)
	f.Close() // waits for the in-flight duplicate delivery

	cap.mu.Lock()
	defer cap.mu.Unlock()
	if len(cap.sent) != 2 {
		t.Fatalf("dup=1 delivered %d messages, want original + duplicate", len(cap.sent))
	}
	for i, tc := range cap.sent {
		if tc != want {
			t.Fatalf("delivery %d trace %+v, want %+v", i, tc, want)
		}
	}
}
