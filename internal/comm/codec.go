package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"neutronstar/internal/tensor"
)

// Wire format for TCP transport, little-endian throughout:
//
//	magic     u32  (0x4E545302 "NTS\x02")
//	kind      u8
//	from, to  u32
//	epoch     i64
//	layer     i32
//	seq       i32
//	numVerts  u32
//	rows,cols u32, u32
//	--- trace context block ---
//	traceID   u64
//	spanID    u64
//	parent    u64
//	sentNanos i64
//	--- payload ---
//	verts     numVerts × i32
//	data      rows*cols × f32
//
// The format is self-delimiting (lengths precede payloads), so a stream of
// messages needs no extra framing.
//
// Versioning: this is format v2, the only one spoken — both ends of every
// TCPFabric are one process, and nothing captures streams. Any other magic,
// v1's "NTS\x01" included, is rejected as a bad magic, and a header whose
// trace block is truncated is rejected (io.ErrUnexpectedEOF), never padded.

const (
	wireMagicV2 = 0x4E545302
	// traceBlockLen is the byte length of the trace-context block.
	traceBlockLen = 32
)

// maxWireDim bounds decoded allocation sizes against corrupt or hostile
// streams: no legitimate message in this system approaches it.
const maxWireDim = 1 << 28

// encodeMessage writes msg in the wire format.
func encodeMessage(w *bufio.Writer, msg *Message) error {
	var hdr [41 + traceBlockLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], wireMagicV2)
	hdr[4] = byte(msg.Kind)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(msg.From))
	binary.LittleEndian.PutUint32(hdr[9:], uint32(msg.To))
	binary.LittleEndian.PutUint64(hdr[13:], uint64(int64(msg.Epoch)))
	binary.LittleEndian.PutUint32(hdr[21:], uint32(int32(msg.Layer)))
	binary.LittleEndian.PutUint32(hdr[25:], uint32(int32(msg.Seq)))
	binary.LittleEndian.PutUint32(hdr[29:], uint32(len(msg.Vertices)))
	rows, cols := 0, 0
	if msg.Rows != nil {
		rows, cols = msg.Rows.Rows(), msg.Rows.Cols()
	}
	binary.LittleEndian.PutUint32(hdr[33:], uint32(rows))
	binary.LittleEndian.PutUint32(hdr[37:], uint32(cols))
	binary.LittleEndian.PutUint64(hdr[41:], msg.Trace.TraceID)
	binary.LittleEndian.PutUint64(hdr[49:], msg.Trace.SpanID)
	binary.LittleEndian.PutUint64(hdr[57:], msg.Trace.Parent)
	binary.LittleEndian.PutUint64(hdr[65:], uint64(msg.Trace.SentUnixNano))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var scratch [4]byte
	for _, v := range msg.Vertices {
		binary.LittleEndian.PutUint32(scratch[:], uint32(v))
		if _, err := w.Write(scratch[:]); err != nil {
			return err
		}
	}
	if msg.Rows != nil {
		for _, f := range msg.Rows.Data() {
			binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(f))
			if _, err := w.Write(scratch[:]); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeMessage reads one message in the wire format.
func decodeMessage(r *bufio.Reader) (*Message, error) {
	var hdr [41]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != wireMagicV2 {
		return nil, fmt.Errorf("comm: bad wire magic %#x", magic)
	}
	msg := &Message{
		Kind:  MsgKind(hdr[4]),
		From:  int(binary.LittleEndian.Uint32(hdr[5:])),
		To:    int(binary.LittleEndian.Uint32(hdr[9:])),
		Epoch: int(int64(binary.LittleEndian.Uint64(hdr[13:]))),
		Layer: int(int32(binary.LittleEndian.Uint32(hdr[21:]))),
		Seq:   int(int32(binary.LittleEndian.Uint32(hdr[25:]))),
	}
	nv := binary.LittleEndian.Uint32(hdr[29:])
	rows := binary.LittleEndian.Uint32(hdr[33:])
	cols := binary.LittleEndian.Uint32(hdr[37:])
	var tb [traceBlockLen]byte
	if _, err := io.ReadFull(r, tb[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promises the block
		}
		return nil, err
	}
	msg.Trace = TraceContext{
		TraceID:      binary.LittleEndian.Uint64(tb[0:]),
		SpanID:       binary.LittleEndian.Uint64(tb[8:]),
		Parent:       binary.LittleEndian.Uint64(tb[16:]),
		SentUnixNano: int64(binary.LittleEndian.Uint64(tb[24:])),
	}
	if nv > maxWireDim || rows > maxWireDim || cols > maxWireDim ||
		(rows > 0 && cols > maxWireDim/rows) {
		return nil, fmt.Errorf("comm: wire dimensions out of range (%d verts, %dx%d)", nv, rows, cols)
	}
	if nv > 0 {
		verts, err := readI32Chunked(r, int(nv))
		if err != nil {
			return nil, err
		}
		msg.Vertices = verts
	}
	if rows*cols > 0 {
		data, err := readF32Chunked(r, int(rows)*int(cols))
		if err != nil {
			return nil, err
		}
		msg.Rows = tensor.FromSlice(int(rows), int(cols), data)
	} else if rows > 0 || cols > 0 {
		msg.Rows = tensor.New(int(rows), int(cols))
	}
	return msg, nil
}

// The chunked readers decode n little-endian u32 values straight into their
// final element type in bounded chunks, so a corrupt or hostile length field
// costs at most one chunk of allocation beyond the bytes actually present in
// the stream — a 41-byte header claiming 2^28 elements fails at the first
// short read instead of committing a gigabyte up front. Decoding in place
// also avoids the intermediate []uint32 a generic reader would force.

const wireChunk = 1 << 14

func readI32Chunked(r *bufio.Reader, n int) ([]int32, error) {
	first := n
	if first > wireChunk {
		first = wireChunk
	}
	out := make([]int32, 0, first)
	var buf [4 * wireChunk]byte
	for n > 0 {
		c := n
		if c > wireChunk {
			c = wireChunk
		}
		b := buf[:4*c]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(b[4*i:])))
		}
		n -= c
	}
	return out, nil
}

func readF32Chunked(r *bufio.Reader, n int) ([]float32, error) {
	first := n
	if first > wireChunk {
		first = wireChunk
	}
	out := make([]float32, 0, first)
	var buf [4 * wireChunk]byte
	for n > 0 {
		c := n
		if c > wireChunk {
			c = wireChunk
		}
		b := buf[:4*c]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
		}
		n -= c
	}
	return out, nil
}
