// Package ckpt is the checkpoint/restore subsystem: a versioned binary
// snapshot of everything a training run needs to continue after a crash —
// the model's parameters and Adam state (the gradient all-reduce keeps every
// replica identical, so one copy is the whole model), each worker's RNG
// stream position, the epoch/loss history, and a fingerprint of the graph
// partitioning so a snapshot is rejected when the topology it was taken
// under no longer matches. The same format is the trained-model file that
// serving loads.
//
// Snapshots are plain data plus a codec; policy (where files live, how many
// are kept, how often one is written) lives in Store and Saver. The package
// deliberately knows nothing about engines or models: the engine translates
// its state into Snapshot and back, so ckpt depends only on the standard
// library.
package ckpt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Wire format (little-endian throughout):
//
//	magic       u32  (0x4E53434B, "NSCK")
//	version     u16  (currently 2)
//	reserved    u16
//	fingerprint u64
//	epoch       u32
//	numHistory  u32
//	history     numHistory × { epoch u32, loss f64, millis f64 }
//	numRNG      u32
//	rng         numRNG × u64 (one stream position per worker)
//	step        u32  (Adam's bias-correction step t)
//	numParams   u32
//	per param:
//	  nameLen u16 + name bytes
//	  rows, cols u32, u32
//	  value, m, v  rows*cols × f32 each
//	crc32(IEEE) u32 over every preceding byte
//
// The trailing CRC makes torn or bit-rotted files fail loudly at load time
// rather than resuming from (or serving) garbage; the version field rejects
// files written in another layout.

const (
	snapshotMagic   = 0x4E53434B
	snapshotVersion = 2
)

// maxSnapshotDim bounds decoded allocation sizes against corrupt files.
const maxSnapshotDim = 1 << 28

// EpochRecord is one completed epoch in the training history.
type EpochRecord struct {
	Epoch  int
	Loss   float64
	Millis float64
}

// ParamState is one parameter tensor plus its Adam moments. M and V always
// hold Rows*Cols values; a parameter never stepped has zero moments, which
// is exactly the state Adam starts a fresh parameter from.
type ParamState struct {
	Name       string
	Rows, Cols int
	Value      []float32
	M, V       []float32
}

// Snapshot is one recoverable point in a training run.
type Snapshot struct {
	// Fingerprint identifies the (dataset, partitioning, architecture)
	// configuration the snapshot was taken under. Restore refuses a
	// mismatch: resuming onto a different partitioning would silently
	// misalign every worker's owned vertex block.
	Fingerprint uint64
	// Epoch is the number of completed epochs.
	Epoch   int
	History []EpochRecord
	// RNG is each worker's dropout/sampling stream position, by worker id.
	RNG []uint64
	// Step is Adam's bias-correction step counter.
	Step   int
	Params []ParamState
}

// Encode writes the snapshot in the versioned binary format.
func (s *Snapshot) Encode(w io.Writer) error {
	cw := &crcWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	putU32 := func(v uint32) { var b [4]byte; binary.LittleEndian.PutUint32(b[:], v); bw.Write(b[:]) }
	putU64 := func(v uint64) { var b [8]byte; binary.LittleEndian.PutUint64(b[:], v); bw.Write(b[:]) }
	putF32s := func(fs []float32) {
		var b [4]byte
		for _, f := range fs {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
			bw.Write(b[:])
		}
	}

	putU32(snapshotMagic)
	var vb [4]byte
	binary.LittleEndian.PutUint16(vb[0:], snapshotVersion)
	bw.Write(vb[:]) // version + reserved
	putU64(s.Fingerprint)
	putU32(uint32(s.Epoch))
	putU32(uint32(len(s.History)))
	for _, h := range s.History {
		putU32(uint32(h.Epoch))
		putU64(math.Float64bits(h.Loss))
		putU64(math.Float64bits(h.Millis))
	}
	putU32(uint32(len(s.RNG)))
	for _, r := range s.RNG {
		putU64(r)
	}
	putU32(uint32(s.Step))
	putU32(uint32(len(s.Params)))
	for _, p := range s.Params {
		if len(p.Name) > 1<<16-1 {
			return fmt.Errorf("ckpt: param name %q too long", p.Name)
		}
		n := p.Rows * p.Cols
		if len(p.Value) != n || len(p.M) != n || len(p.V) != n {
			return fmt.Errorf("ckpt: param %s has %d values and %d/%d moments for %dx%d",
				p.Name, len(p.Value), len(p.M), len(p.V), p.Rows, p.Cols)
		}
		var nb [2]byte
		binary.LittleEndian.PutUint16(nb[:], uint16(len(p.Name)))
		bw.Write(nb[:])
		bw.WriteString(p.Name)
		putU32(uint32(p.Rows))
		putU32(uint32(p.Cols))
		putF32s(p.Value)
		putF32s(p.M)
		putF32s(p.V)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// CRC over everything written so far, then the CRC itself (uncounted).
	var cb [4]byte
	binary.LittleEndian.PutUint32(cb[:], cw.sum)
	_, err := w.Write(cb[:])
	return err
}

// crcWriter forwards to w while accumulating a CRC32 of the stream.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p)
	return c.w.Write(p)
}

// Decode reads a snapshot written by Encode, verifying magic, version and
// the trailing checksum. The whole stream is read up front: the CRC covers
// every body byte, so nothing can be trusted until all of it has been seen.
func Decode(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading snapshot: %w", err)
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("ckpt: snapshot truncated (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("ckpt: snapshot checksum mismatch (%#x, stored %#x)", got, want)
	}
	br := bytes.NewReader(body)
	var scratch [8]byte
	getU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	getU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}

	magic, err := getU32()
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading header: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("ckpt: bad snapshot magic %#x", magic)
	}
	vr, err := getU32()
	if err != nil {
		return nil, err
	}
	if v := uint16(vr); v != snapshotVersion {
		return nil, fmt.Errorf("ckpt: unsupported snapshot version %d (this build reads %d)", v, snapshotVersion)
	}
	s := &Snapshot{}
	if s.Fingerprint, err = getU64(); err != nil {
		return nil, err
	}
	epoch, err := getU32()
	if err != nil {
		return nil, err
	}
	s.Epoch = int(epoch)
	nh, err := getU32()
	if err != nil {
		return nil, err
	}
	if nh > maxSnapshotDim {
		return nil, fmt.Errorf("ckpt: history length %d out of range", nh)
	}
	for i := uint32(0); i < nh; i++ {
		var h EpochRecord
		e, err := getU32()
		if err != nil {
			return nil, err
		}
		h.Epoch = int(e)
		lb, err := getU64()
		if err != nil {
			return nil, err
		}
		h.Loss = math.Float64frombits(lb)
		mb, err := getU64()
		if err != nil {
			return nil, err
		}
		h.Millis = math.Float64frombits(mb)
		s.History = append(s.History, h)
	}
	nr, err := getU32()
	if err != nil {
		return nil, err
	}
	if nr > maxSnapshotDim {
		return nil, fmt.Errorf("ckpt: worker count %d out of range", nr)
	}
	for i := uint32(0); i < nr; i++ {
		r, err := getU64()
		if err != nil {
			return nil, err
		}
		s.RNG = append(s.RNG, r)
	}
	step, err := getU32()
	if err != nil {
		return nil, err
	}
	s.Step = int(step)
	np, err := getU32()
	if err != nil {
		return nil, err
	}
	if np > maxSnapshotDim {
		return nil, fmt.Errorf("ckpt: param count %d out of range", np)
	}
	for j := uint32(0); j < np; j++ {
		var p ParamState
		if _, err := io.ReadFull(br, scratch[:2]); err != nil {
			return nil, err
		}
		name := make([]byte, binary.LittleEndian.Uint16(scratch[:2]))
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		p.Name = string(name)
		rows, err := getU32()
		if err != nil {
			return nil, err
		}
		cols, err := getU32()
		if err != nil {
			return nil, err
		}
		if rows > maxSnapshotDim || cols > maxSnapshotDim ||
			(rows > 0 && cols > maxSnapshotDim/rows) {
			return nil, fmt.Errorf("ckpt: param %s dimensions %dx%d out of range", p.Name, rows, cols)
		}
		p.Rows, p.Cols = int(rows), int(cols)
		for _, dst := range []*[]float32{&p.Value, &p.M, &p.V} {
			if *dst, err = readF32s(br, p.Rows*p.Cols); err != nil {
				return nil, err
			}
		}
		s.Params = append(s.Params, p)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after snapshot body", br.Len())
	}
	return s, nil
}

// readF32s reads n little-endian float32 values in bounded chunks, so a
// corrupt length field costs at most one chunk of allocation beyond the
// data actually present in the stream.
func readF32s(r io.Reader, n int) ([]float32, error) {
	const chunk = 1 << 14
	out := make([]float32, 0, min(n, chunk))
	var buf [4 * chunk]byte
	for n > 0 {
		c := min(n, chunk)
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
