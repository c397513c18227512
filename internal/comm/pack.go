package comm

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"neutronstar/internal/tensor"
)

// ReLU-packed rows: the lossless form every master–mirror representation
// (KindRep) and its gradient post (KindGrad) travel in (DESIGN.md §5 "Packed
// mirror rows"). The rows a master sends are a rectified layer's output, so
// most of their entries are exact zeros; only the others cross the wire.
//
// A packed block of rows×cols floats is, row after row, ⌈cols/32⌉ bitmap
// words — bit j%32 of word j/32 set when element j's bits are non-zero —
// followed by those elements' bits in column order. The test is on the bits,
// not the value, so −0, NaN payloads and subnormals travel as they are; only
// +0 is left out. Padding bits past cols are zero.
//
// The gradient post carries no bitmap: the mirror packs its gradient at the
// non-zero positions of the rows it received (PackGrad), and the master adds
// the entries back at the same positions of the rows it sent (AddPackedGrad),
// which have the same bits. The entries left out sit where the master's
// layer output is +0, and the rectifier's backward writes 0 there whatever
// its incoming gradient holds, so every gradient below is bit-identical to
// the dense exchange's.

var errPacked = errors.New("comm: malformed packed rows")

// bitmapWords is the bitmap length of one packed row of cols elements.
func bitmapWords(cols int) int { return (cols + 31) / 32 }

// nonZero is 1 when b != 0 and 0 otherwise, without a branch: for b ≠ 0 one
// of b and −b has its top bit set.
func nonZero(b uint32) uint32 { return (b | -b) >> 31 }

// countNonZero is the number of non-zero bit patterns in src.
func countNonZero(src []uint32) int {
	n := uint32(0)
	for _, b := range src {
		n += nonZero(b)
	}
	return int(n)
}

// The packing loops store every element at the cursor and advance it past
// the non-zero ones only, so they never branch on a value; their
// destination holds one word of slack for the store after the last kept
// element.

// PackRows returns rows in the packed format, in storage drawn from arena.
// The slice is valid until the arena is released.
func PackRows(rows *tensor.Tensor, arena *tensor.Arena) []uint32 {
	src, cols := rows.Bits(), rows.Cols()
	w := bitmapWords(cols)
	dst := arena.GetUnzeroed(1, rows.Rows()*w+countNonZero(src)+1).Bits()
	k := 0
	for off := 0; off < len(src); off += cols {
		bm := dst[k : k+w]
		clear(bm)
		k += w
		for j, b := range src[off : off+cols] {
			nz := nonZero(b)
			bm[j>>5] |= nz << (j & 31)
			dst[k] = b
			k += int(nz)
		}
	}
	return dst[:k]
}

// UnpackRows decodes packed, a packed block of rows×cols, into a tensor
// drawn from arena. It fails unless packed is exactly such a block.
func UnpackRows(packed []uint32, rows, cols int, arena *tensor.Arena) (*tensor.Tensor, error) {
	out := arena.GetUnzeroed(rows, cols)
	if err := unpackRows(out.Bits(), cols, packed); err != nil {
		return nil, err
	}
	return out, nil
}

// unpackRows decodes packed into dst, rows of cols bit patterns, writing
// every element of dst.
func unpackRows(dst []uint32, cols int, packed []uint32) error {
	w := bitmapWords(cols)
	var pad uint32 // the bits of the last bitmap word past cols
	if cols%32 != 0 {
		pad = ^uint32(0) << (cols % 32)
	}
	k := 0
	for off := 0; off < len(dst); off += cols {
		if len(packed)-k < w {
			return errPacked
		}
		bm := packed[k : k+w]
		k += w
		if bm[w-1]&pad != 0 {
			return fmt.Errorf("%w: bitmap bits past %d columns", errPacked, cols)
		}
		n := 0
		for _, word := range bm {
			n += bits.OnesCount32(word)
		}
		if len(packed)-k < n {
			return errPacked
		}
		vals := packed[k : k+n]
		k += n
		row := dst[off : off+cols]
		clear(row)
		i := 0
		for wi, word := range bm {
			for word != 0 {
				row[wi<<5+bits.TrailingZeros32(word)] = vals[i]
				i++
				word &= word - 1
			}
		}
	}
	if k != len(packed) {
		return fmt.Errorf("%w: %d words past the last row", errPacked, len(packed)-k)
	}
	return nil
}

// PackGrad returns grad's entries at the positions where fwd, the rows grad
// is the gradient of, has non-zero bits, in order, in storage drawn from
// arena. The slice is valid until the arena is released.
func PackGrad(grad, fwd *tensor.Tensor, arena *tensor.Arena) []uint32 {
	g, f := grad.Bits(), fwd.Bits()
	dst := arena.GetUnzeroed(1, countNonZero(f)+1).Bits()
	g = g[:len(f)]
	k := 0
	for j, b := range f {
		dst[k] = g[j]
		k += int(nonZero(b))
	}
	return dst[:k]
}

// AddPackedGrad adds the leading entries of packed into dst at the positions
// where fwd has non-zero bits, one entry each, and returns the entries left.
// dst and fwd are one row: the master's seed row and the row it sent.
func AddPackedGrad(dst, fwd []float32, packed []uint32) ([]uint32, error) {
	dst = dst[:len(fwd)]
	k := 0
	for j, f := range fwd {
		if math.Float32bits(f) == 0 {
			continue
		}
		if k == len(packed) {
			return nil, errPacked
		}
		dst[j] += math.Float32frombits(packed[k])
		k++
	}
	return packed[k:], nil
}
