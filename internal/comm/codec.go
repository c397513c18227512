package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"neutronstar/internal/tensor"
)

// Wire format for TCP transport, little-endian throughout:
//
//	magic     u32  (0x4E545305 "NTS\x05")
//	kind      u8
//	from, to  u32
//	epoch     i64
//	layer     i32
//	seq       i32
//	numVerts  u32
//	rows,cols u32, u32
//	numPacked u32
//	--- trace context block ---
//	sentNanos i64
//	--- payload ---
//	verts     numVerts × i32
//	data      rows*cols × f32
//	packed    numPacked × u32  (Message.Packed)
//
// The format is self-delimiting (lengths precede payloads), so a stream of
// messages needs no extra framing.
//
// Versioning: this is format v5, the only one spoken — both ends of every
// TCPFabric are one process, and nothing captures streams. Any other magic,
// the retired v1–v4 ("NTS\x01"–"NTS\x04") included, is rejected as a bad magic,
// and a header whose trace block is truncated is rejected
// (io.ErrUnexpectedEOF), never padded.

const (
	wireMagic = 0x4E545305
	// headerLen is the byte length of the fixed header before the trace
	// block; traceBlockLen that of the trace-context block.
	headerLen     = 45
	traceBlockLen = 8
)

// maxWireDim bounds decoded allocation sizes against corrupt or hostile
// streams: no legitimate message in this system approaches it.
const maxWireDim = 1 << 28

// appendFrame appends msg's frame in the wire format to dst. It reads the
// whole payload before the frame reaches any writer, so a frame written
// twice reads the payload once.
func appendFrame(dst []byte, msg *Message) []byte {
	rows, cols := 0, 0
	if msg.Rows != nil {
		rows, cols = msg.Rows.Rows(), msg.Rows.Cols()
	}
	dst = slices.Grow(dst, headerLen+traceBlockLen+4*len(msg.Vertices)+4*rows*cols+4*len(msg.Packed))
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, wireMagic)
	dst = append(dst, byte(msg.Kind))
	dst = le.AppendUint32(dst, uint32(msg.From))
	dst = le.AppendUint32(dst, uint32(msg.To))
	dst = le.AppendUint64(dst, uint64(int64(msg.Epoch)))
	dst = le.AppendUint32(dst, uint32(int32(msg.Layer)))
	dst = le.AppendUint32(dst, uint32(int32(msg.Seq)))
	dst = le.AppendUint32(dst, uint32(len(msg.Vertices)))
	dst = le.AppendUint32(dst, uint32(rows))
	dst = le.AppendUint32(dst, uint32(cols))
	dst = le.AppendUint32(dst, uint32(len(msg.Packed)))
	dst = le.AppendUint64(dst, uint64(msg.Trace.SentUnixNano))
	for _, v := range msg.Vertices {
		dst = le.AppendUint32(dst, uint32(v))
	}
	if msg.Rows != nil {
		for _, f := range msg.Rows.Data() {
			dst = le.AppendUint32(dst, math.Float32bits(f))
		}
	}
	for _, w := range msg.Packed {
		dst = le.AppendUint32(dst, w)
	}
	return dst
}

// decodeMessage reads one message in the wire format.
func decodeMessage(r *bufio.Reader) (*Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != wireMagic {
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
	np := binary.LittleEndian.Uint32(hdr[41:])
	var tb [traceBlockLen]byte
	if _, err := io.ReadFull(r, tb[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promises the block
		}
		return nil, err
	}
	msg.Trace = TraceContext{SentUnixNano: int64(binary.LittleEndian.Uint64(tb[:]))}
	if nv > maxWireDim || rows > maxWireDim || cols > maxWireDim || np > maxWireDim ||
		(rows > 0 && cols > maxWireDim/rows) {
		return nil, fmt.Errorf("comm: wire dimensions out of range (%d verts, %dx%d, %d packed)", nv, rows, cols, np)
	}
	if nv > 0 {
		verts, err := readIntChunked[int32](r, int(nv))
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
	if np > 0 {
		packed, err := readIntChunked[uint32](r, int(np))
		if err != nil {
			return nil, err
		}
		msg.Packed = packed
	}
	return msg, nil
}

// The chunked readers decode n little-endian u32 values straight into their
// final element type in bounded chunks, so a corrupt or hostile length field
// costs at most one chunk of allocation beyond the bytes actually present in
// the stream — a header claiming 2^28 elements fails at the first
// short read instead of committing a gigabyte up front. Decoding in place
// also avoids the intermediate []uint32 a float reader built on the integer
// one would force.

const wireChunk = 1 << 14

func readIntChunked[T int32 | uint32](r *bufio.Reader, n int) ([]T, error) {
	first := n
	if first > wireChunk {
		first = wireChunk
	}
	out := make([]T, 0, first)
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
			out = append(out, T(binary.LittleEndian.Uint32(b[4*i:])))
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
