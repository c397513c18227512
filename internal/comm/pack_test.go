package comm

import (
	"math"
	"testing"

	"neutronstar/internal/tensor"
)

// packCases builds, for one width, rows that exercise every kind of
// element the format must carry bit for bit: an all-zero row, a dense row,
// and a row of −0, NaNs with payloads, ±Inf and subnormals among +0s.
func packCases(cols int) *tensor.Tensor {
	special := []uint32{
		0x80000000,                         // −0
		0x7FC00001, 0xFFC00000, 0x7F800001, // NaNs, quiet and signalling
		0x7F800000, 0xFF800000, // ±Inf
		0x00000001, 0x807FFFFF, // subnormals
	}
	rng := tensor.NewRNG(uint64(cols))
	t := tensor.New(4, cols)
	b := t.Bits()
	for j := 0; j < cols; j++ {
		b[cols+j] = math.Float32bits(float32(rng.Float64()) + 0.5) // dense
		if j%3 != 1 {
			b[2*cols+j] = special[j%len(special)]
		}
		if rng.Float64() < 0.4 {
			b[3*cols+j] = math.Float32bits(float32(rng.Float64()))
		}
	}
	return t
}

// TestPackRowsRoundTrip holds PackRows/UnpackRows to a bit-exact round trip
// at widths on either side of a bitmap word, and to the format's length:
// ⌈cols/32⌉ bitmap words per row plus one word per non-zero element.
func TestPackRowsRoundTrip(t *testing.T) {
	for _, cols := range []int{1, 16, 31, 32, 33, 64} {
		rows := packCases(cols)
		packed := PackRows(rows, nil)
		nonZero := 0
		for _, b := range rows.Bits() {
			if b != 0 {
				nonZero++
			}
		}
		if want := rows.Rows()*bitmapWords(cols) + nonZero; len(packed) != want {
			t.Fatalf("cols %d: %d packed words, want %d", cols, len(packed), want)
		}
		got, err := UnpackRows(packed, rows.Rows(), cols, nil)
		if err != nil {
			t.Fatalf("cols %d: %v", cols, err)
		}
		for i, b := range rows.Bits() {
			if got.Bits()[i] != b {
				t.Fatalf("cols %d: element %d is %#x, sent %#x", cols, i, got.Bits()[i], b)
			}
		}
	}
}

// TestUnpackRowsRejectsMalformed: a block cut short, with words to spare, or
// with bitmap bits past the row's width is an error, never a panic or a
// silently shifted row.
func TestUnpackRowsRejectsMalformed(t *testing.T) {
	rows := packCases(33)
	packed := PackRows(rows, nil)
	for name, bad := range map[string][]uint32{
		"short":   packed[:len(packed)-1],
		"long":    append(append([]uint32(nil), packed...), 7),
		"no rows": nil,
	} {
		if _, err := UnpackRows(bad, rows.Rows(), 33, nil); err == nil {
			t.Fatalf("%s: decoded", name)
		}
	}
	// Row 0 is all zeros: its bitmap is words 0 and 1, and bit 1 of word 1 is
	// column 33, one past the row.
	pad := append([]uint32(nil), packed...)
	pad[1] = 1 << 1
	if _, err := UnpackRows(pad, rows.Rows(), 33, nil); err == nil {
		t.Fatal("bitmap bit past the row decoded")
	}
}

// TestPackGradPair holds the gradient pair to the dense exchange: keyed on
// the forward rows, PackGrad keeps the gradient at their non-zero positions
// and AddPackedGrad adds it back there, row by row, leaving every other
// element as it was, bit for bit — −0 seeds included.
func TestPackGradPair(t *testing.T) {
	for _, cols := range []int{1, 16, 31, 32, 33, 64} {
		fwd := packCases(cols)
		rng := tensor.NewRNG(7)
		grad := tensor.RandNormal(fwd.Rows(), cols, 0, 1, rng)
		seed := tensor.RandNormal(fwd.Rows(), cols, 0, 1, rng)
		seed.Bits()[0] = 0x80000000
		packed := PackGrad(grad, fwd, nil)
		got := seed.Clone()
		rest := packed
		for r := range fwd.Rows() {
			var err error
			if rest, err = AddPackedGrad(got.Row(r), fwd.Row(r), rest); err != nil {
				t.Fatalf("cols %d row %d: %v", cols, r, err)
			}
		}
		if len(rest) != 0 {
			t.Fatalf("cols %d: %d words left over", cols, len(rest))
		}
		for i, f := range fwd.Bits() {
			want := seed.Data()[i]
			if f != 0 {
				want += grad.Data()[i]
			}
			if got.Bits()[i] != math.Float32bits(want) {
				t.Fatalf("cols %d: element %d is %#x, want %#x", cols, i, got.Bits()[i], math.Float32bits(want))
			}
		}
		if _, err := AddPackedGrad(got.Row(1), fwd.Row(1), packed[:0]); err == nil {
			t.Fatalf("cols %d: a dense row's gradient added from nothing", cols)
		}
	}
}

// FuzzPackRows packs arbitrary bit patterns at an arbitrary width: the
// round trip must be bit-exact, and the packed block fed back with one word
// dropped must be rejected.
func FuzzPackRows(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0x80, 0x3f}, uint8(1))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0xc0, 0x7f, 0, 0, 0, 0x80, 0, 0, 0x80, 0xff}, uint8(33))
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		cols := int(width%70) + 1
		n := len(data) / 4 / cols * cols
		if n == 0 {
			return
		}
		rows := tensor.New(n/cols, cols)
		b := rows.Bits()
		for i := range b {
			b[i] = uint32(data[4*i]) | uint32(data[4*i+1])<<8 | uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24
		}
		packed := PackRows(rows, nil)
		got, err := UnpackRows(packed, rows.Rows(), cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			if got.Bits()[i] != b[i] {
				t.Fatalf("element %d is %#x, sent %#x", i, got.Bits()[i], b[i])
			}
		}
		if _, err := UnpackRows(packed[:len(packed)-1], rows.Rows(), cols, nil); err == nil {
			t.Fatal("a block one word short decoded")
		}
	})
}
