package comm

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

func TestCodecTraceRoundTrip(t *testing.T) {
	want := TraceContext{SentUnixNano: 1_754_000_000_000_000_000}
	msg := &Message{From: 1, To: 2, Kind: KindRep, Epoch: 12, Layer: 1, Seq: 4,
		Vertices: []int32{3, 5}, Rows: tensor.FromSlice(2, 2, []float32{1, 2, 3, 4}),
		Trace: want}
	frame := encodeToBytes(t, msg)
	if got, wantLen := len(frame), headerLen+traceBlockLen+4*2+4*4; got != wantLen {
		t.Fatalf("frame is %d bytes, want %d", got, wantLen)
	}
	got, err := decodeMessage(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != want {
		t.Fatalf("trace round trip: %+v, want %+v", got.Trace, want)
	}
}

// TestCodecRejectsTruncatedTraceBlock: a header promises a trace block; a
// stream that ends inside it must fail with io.ErrUnexpectedEOF rather than
// zero-padding the missing fields.
func TestCodecRejectsTruncatedTraceBlock(t *testing.T) {
	msg := &Message{From: 0, To: 1, Kind: KindRep, Epoch: 1, Layer: 1, Seq: 0,
		Trace: TraceContext{SentUnixNano: 42}}
	full := encodeToBytes(t, msg)
	for _, cut := range []int{headerLen, headerLen + 1, headerLen + traceBlockLen - 1} {
		_, err := decodeMessage(bufio.NewReader(bytes.NewReader(full[:cut])))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestFaultyFabricDuplicateKeepsTrace pins the causal contract for
// duplication on both transports: Send stamps the send time once, from the
// sender's flight recorder, and the duplicate that follows carries it
// unchanged — it is the same causal event on the wire, not a new one.
func TestFaultyFabricDuplicateKeepsTrace(t *testing.T) {
	p := faulted(t, "dup=1,seed=9")
	transports := map[string]func() (Network, error){
		"fabric": func() (Network, error) { return NewFabric(2, p, nil), nil },
		"tcp":    func() (Network, error) { return NewTCPFabric(2, p, nil) },
	}
	for name, build := range transports {
		t.Run(name, func(t *testing.T) {
			f, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rec := obs.NewFlightRecorder()
			rec.BeginEpoch(1, 2, 1)
			f.Mailbox(0).SetStageRecorder(rec, 0)

			// With dedup off the duplicate stays pending behind the original,
			// which goes to a receiver already waiting, so both can be read.
			mb := f.Mailbox(1)
			mb.mu.Lock()
			mb.dedup = false
			mb.mu.Unlock()
			got := make(chan *Message, 2)
			go func() {
				for i := 0; i < 2; i++ {
					got <- mb.Wait(KindRep, 1, 1, 0, 0)
				}
			}()
			for waiting := false; !waiting; {
				runtime.Gosched()
				mb.mu.Lock()
				waiting = len(mb.waiting) == 1
				mb.mu.Unlock()
			}
			f.Send(&Message{From: 0, To: 1, Kind: KindRep, Epoch: 1, Layer: 1, Seq: 0})
			var copies []*Message
			for len(copies) < 2 {
				select {
				case m := <-got:
					copies = append(copies, m)
				case <-time.After(10 * time.Second):
					t.Fatalf("%d of 2 copies delivered", len(copies))
				}
			}
			orig, dup := copies[0], copies[1]
			if orig.Trace.SentUnixNano == 0 {
				t.Fatalf("Send left the message untraced: %+v", orig.Trace)
			}
			if dup.Trace != orig.Trace {
				t.Fatalf("duplicate trace %+v, original %+v", dup.Trace, orig.Trace)
			}
		})
	}
}
