package comm

import (
	"bufio"
	"bytes"
	"math"
	"slices"
	"testing"

	"neutronstar/internal/tensor"
)

// encodeMessage writes msg's frame to w.
func encodeMessage(w *bufio.Writer, msg *Message) error {
	_, err := w.Write(appendFrame(nil, msg))
	return err
}

// encodeToBytes renders one message in the wire format for corpus seeding.
func encodeToBytes(t testing.TB, msg *Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := encodeMessage(w, msg); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCodecRoundTrip feeds arbitrary bytes to the wire decoder. Malformed
// input must be rejected with an error (never a panic or an oversized
// allocation); input that decodes must survive an encode/decode round trip
// bit-exactly.
func FuzzCodecRoundTrip(f *testing.F) {
	seeds := []*Message{
		{From: 0, To: 1, Kind: KindRep, Epoch: 3, Layer: 1, Seq: 2,
			Vertices: []int32{7, 9, 11},
			Rows:     tensor.FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6}),
			Trace:    TraceContext{SentUnixNano: 1_700_000_000_123_456_789}},
		{From: 2, To: 0, Kind: KindGrad, Epoch: 0, Layer: 0, Seq: 0,
			Rows:  tensor.FromSlice(1, 4, []float32{0, float32(math.Inf(1)), -0.5, float32(math.NaN())}),
			Trace: TraceContext{SentUnixNano: -1}},
		{From: 1, To: 2, Kind: KindAllReduce, Epoch: -1, Layer: -1, Seq: 41},
		{From: 0, To: 3, Kind: KindSample, Epoch: 12, Layer: 2, Seq: 1,
			Vertices: []int32{-1, 0, 1 << 30}},
		{From: 3, To: 1, Kind: KindSlice, Epoch: 1, Layer: 1, Seq: 0,
			Rows: tensor.New(2, 0)},
		{From: 1, To: 3, Kind: KindRep, Epoch: 2, Layer: 2, Seq: 0,
			Vertices: []int32{4, 8},
			Packed:   PackRows(tensor.FromSlice(2, 3, []float32{0, 1.5, 0, 0, 0, -2}), nil)},
	}
	for _, m := range seeds {
		f.Add(encodeToBytes(f, m))
	}
	// Hostile seeds: bad magic, truncated header, header claiming a huge
	// payload with no bytes behind it, and a header whose promised trace
	// block is cut off mid-way (must reject, never zero-pad).
	f.Add([]byte("not a wire message at all, just junk bytes padding"))
	f.Add(encodeToBytes(f, seeds[0])[:20])
	huge := encodeToBytes(f, seeds[2])
	huge[29], huge[30], huge[31] = 0xff, 0xff, 0xff // numVerts ~ 2^24, absent
	f.Add(huge)
	f.Add(encodeToBytes(f, seeds[2])[:headerLen+traceBlockLen/2])
	// The retired v1–v4 magics over an otherwise well-formed message: a bad
	// magic, not a second dialect.
	for _, v := range []byte{0x01, 0x02, 0x03, 0x04} {
		retired := encodeToBytes(f, seeds[3])
		retired[0] = v
		f.Add(retired)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeMessage(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return // rejection is a valid outcome for arbitrary bytes
		}
		again, err := decodeMessage(bufio.NewReader(bytes.NewReader(encodeToBytes(t, msg))))
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		if again.Kind != msg.Kind || again.From != msg.From || again.To != msg.To ||
			again.Epoch != msg.Epoch || again.Layer != msg.Layer || again.Seq != msg.Seq {
			t.Fatalf("header drift: %+v vs %+v", again, msg)
		}
		if again.Trace != msg.Trace {
			t.Fatalf("trace drift: %+v vs %+v", again.Trace, msg.Trace)
		}
		if len(again.Vertices) != len(msg.Vertices) {
			t.Fatalf("vertex count drift: %d vs %d", len(again.Vertices), len(msg.Vertices))
		}
		for i := range msg.Vertices {
			if again.Vertices[i] != msg.Vertices[i] {
				t.Fatalf("vertex %d drift: %d vs %d", i, again.Vertices[i], msg.Vertices[i])
			}
		}
		if !slices.Equal(again.Packed, msg.Packed) {
			t.Fatalf("packed drift: %v vs %v", again.Packed, msg.Packed)
		}
		if (again.Rows == nil) != (msg.Rows == nil) {
			t.Fatalf("tensor presence drift: %v vs %v", again.Rows, msg.Rows)
		}
		if msg.Rows != nil {
			if again.Rows.Rows() != msg.Rows.Rows() || again.Rows.Cols() != msg.Rows.Cols() {
				t.Fatalf("tensor shape drift: %dx%d vs %dx%d",
					again.Rows.Rows(), again.Rows.Cols(), msg.Rows.Rows(), msg.Rows.Cols())
			}
			a, b := again.Rows.Data(), msg.Rows.Data()
			for i := range b {
				// Bit-exact comparison: NaN payloads must survive too.
				if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
					t.Fatalf("tensor data drift at %d: %x vs %x",
						i, math.Float32bits(a[i]), math.Float32bits(b[i]))
				}
			}
		}
	})
}
