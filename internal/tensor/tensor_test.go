package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndZero(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 || m.Len() != 12 {
		t.Fatalf("shape = %dx%d len %d", m.Rows(), m.Cols(), m.Len())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("New not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	New(-1, 2)
}

func TestSetAtRowMajor(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	if m.Data()[5] != 7 {
		t.Fatal("storage is not row-major")
	}
}

func TestFromSliceAndFromRows(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	n := FromRows([][]float32{{1, 2}, {3, 4}})
	if !m.Equal(n) {
		t.Fatalf("FromSlice %v != FromRows %v", m, n)
	}
}

func TestFromSlicePanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float32{{1, 2}, {3}})
}

func TestRowSliceSharesStorage(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}, {5, 6}})
	s := m.RowSlice(1, 3)
	if s.Rows() != 2 || s.At(0, 0) != 3 {
		t.Fatalf("RowSlice content wrong: %v", s)
	}
	s.Set(0, 0, 99)
	if m.At(1, 0) != 99 {
		t.Fatal("RowSlice does not share storage")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromRows([][]float32{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestTranspose(t *testing.T) {
	rng := NewRNG(1)
	m := RandNormal(37, 53, 0, 1, rng)
	tr := m.Transpose()
	if tr.Rows() != 53 || tr.Cols() != 37 {
		t.Fatalf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !m.Transpose().Transpose().Equal(m) {
		t.Fatal("double transpose is not identity")
	}
}

func TestAddSubMulScale(t *testing.T) {
	a := FromRows([][]float32{{1, 2}, {3, 4}})
	b := FromRows([][]float32{{10, 20}, {30, 40}})
	if got := Add(a, b); !got.Equal(FromRows([][]float32{{11, 22}, {33, 44}})) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !got.Equal(FromRows([][]float32{{9, 18}, {27, 36}})) {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b); !got.Equal(FromRows([][]float32{{10, 40}, {90, 160}})) {
		t.Fatalf("Mul = %v", got)
	}
	if got := Scale(a, 2); !got.Equal(FromRows([][]float32{{2, 4}, {6, 8}})) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestAXPY(t *testing.T) {
	a := FromRows([][]float32{{1, 1}})
	x := FromRows([][]float32{{2, 3}})
	Axpy(a.Data(), 0.5, x.Data())
	if !a.Equal(FromRows([][]float32{{2, 2.5}})) {
		t.Fatalf("Axpy = %v", a)
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	v := FromRows([][]float32{{10, 20}})
	AddRowVector(m, v)
	if !m.Equal(FromRows([][]float32{{11, 22}, {13, 24}})) {
		t.Fatalf("AddRowVector = %v", m)
	}
	s := New(1, 2)
	SumRowsInto(s, m)
	if !s.Equal(FromRows([][]float32{{24, 46}})) {
		t.Fatalf("SumRows = %v", s)
	}
}

func TestArgMaxRows(t *testing.T) {
	m := FromRows([][]float32{{0.1, 0.9, 0.3}, {5, -1, 2}})
	got := ArgMaxRows(m)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows = %v", got)
	}
}

func TestReLUAndBackward(t *testing.T) {
	x := FromRows([][]float32{{-1, 0, 2}})
	y := ReLU(x)
	if !y.Equal(FromRows([][]float32{{0, 0, 2}})) {
		t.Fatalf("ReLU = %v", y)
	}
	g := FromRows([][]float32{{5, 5, 5}})
	gx := ReLUBackward(g, x)
	if !gx.Equal(FromRows([][]float32{{0, 0, 5}})) {
		t.Fatalf("ReLUBackward = %v", gx)
	}
}

func TestLeakyReLU(t *testing.T) {
	x := FromRows([][]float32{{-2, 3}})
	y := LeakyReLU(x, 0.1)
	if math.Abs(float64(y.At(0, 0)+0.2)) > 1e-6 || y.At(0, 1) != 3 {
		t.Fatalf("LeakyReLU = %v", y)
	}
	g := FromRows([][]float32{{1, 1}})
	gx := LeakyReLUBackward(g, x, 0.1)
	if math.Abs(float64(gx.At(0, 0)-0.1)) > 1e-6 || gx.At(0, 1) != 1 {
		t.Fatalf("LeakyReLUBackward = %v", gx)
	}
}

func TestSoftmaxRowsSumsToOne(t *testing.T) {
	rng := NewRNG(7)
	m := RandNormal(20, 13, 0, 5, rng)
	sm := SoftmaxRows(m)
	for i := 0; i < sm.Rows(); i++ {
		var s float64
		for _, v := range sm.Row(i) {
			if v < 0 {
				t.Fatal("softmax produced negative probability")
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := FromRows([][]float32{{1, 2, 3}})
	b := FromRows([][]float32{{1001, 1002, 1003}})
	if sa, sb := SoftmaxRows(a), SoftmaxRows(b); !sa.AllClose(sb, 1e-5) {
		t.Fatalf("softmax not shift invariant: %v vs %v", sa, sb)
	}
}

func TestLogSoftmaxMatchesLogOfSoftmax(t *testing.T) {
	rng := NewRNG(3)
	m := RandNormal(8, 5, 0, 3, rng)
	ls := LogSoftmaxRows(m)
	sm := SoftmaxRows(m)
	for i := range ls.Data() {
		want := math.Log(float64(sm.Data()[i]))
		if math.Abs(float64(ls.Data()[i])-want) > 1e-4 {
			t.Fatalf("logsoftmax[%d]=%v want %v", i, ls.Data()[i], want)
		}
	}
}

func TestDropoutZeroProbIsIdentity(t *testing.T) {
	rng := NewRNG(5)
	x := RandNormal(4, 4, 0, 1, rng)
	y, mask := Dropout(x, 0, rng)
	if !y.Equal(x) {
		t.Fatal("dropout p=0 changed input")
	}
	for _, v := range mask.Data() {
		if v != 1 {
			t.Fatal("dropout p=0 mask not all ones")
		}
	}
}

func TestDropoutExpectationPreserved(t *testing.T) {
	rng := NewRNG(11)
	x := New(200, 200)
	x.Fill(1)
	y, _ := Dropout(x, 0.4, rng)
	mean := Sum(y) / float64(y.Len())
	if math.Abs(mean-1) > 0.03 {
		t.Fatalf("inverted dropout mean = %v, want ~1", mean)
	}
}

// naiveMatMul is the O(n^3) reference used to validate the blocked kernels.
func naiveMatMul(a, b *Tensor) *Tensor {
	out := New(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float32
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := NewRNG(2)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 23}, {64, 64, 64}, {130, 70, 90}} {
		a := RandNormal(dims[0], dims[1], 0, 1, rng)
		b := RandNormal(dims[1], dims[2], 0, 1, rng)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !got.AllClose(want, 1e-3) {
			t.Fatalf("MatMul %v mismatch, maxdiff %v", dims, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulTAMatchesTransposeMatMul(t *testing.T) {
	rng := NewRNG(4)
	a := RandNormal(31, 17, 0, 1, rng)
	b := RandNormal(31, 23, 0, 1, rng)
	got := New(a.Cols(), b.Cols())
	MatMulTAInto(got, a, b)
	want := MatMul(a.Transpose(), b)
	if !got.AllClose(want, 1e-3) {
		t.Fatalf("MatMulTA mismatch, maxdiff %v", got.MaxAbsDiff(want))
	}
}

// bitPinVariants are the operand classes the GEMMs are pinned on.
var bitPinVariants = []string{"random", "relu", "zeros", "inf", "lonezero"}

// plantSpecials rewrites the operands of a bit-identity pin for variant: a is
// the side whose zeros the NN and TA kernels skip, b the side they stream.
func plantSpecials(variant string, a, b *Tensor, rng *RNG) {
	switch variant {
	case "relu": // a rectified output: about half +0, and every 7th row all zero
		for i := range a.data {
			if a.data[i] < 0 || (a.cols > 0 && (i/a.cols)%7 == 3) {
				a.data[i] = 0
			}
		}
	case "zeros": // zero-laden, signed zeros included: the skip must be kept
		for i := range a.data {
			switch rng.Intn(3) {
			case 0:
				a.data[i] = 0
			case 1:
				a.data[i] = float32(math.Copysign(0, -1))
			}
		}
	case "inf": // 0*Inf must stay skipped, Inf-Inf must stay NaN
		plantInf(b, rng)
		for i := range a.data {
			if rng.Intn(4) == 0 {
				a.data[i] = 0
			}
		}
	case "lonezero": // a dense a with a lone ±0 in every other four-row and four-column group: the tile must not take its block
		plantInf(b, rng)
		if len(a.data) == 0 {
			return
		}
		zero := func() float32 { return float32(math.Copysign(0, float64(1-2*rng.Intn(2)))) }
		for g := 0; g < a.rows; g += 8 { // NN's groups of four rows of a
			a.Set(g+rng.Intn(min(4, a.rows-g)), rng.Intn(a.cols), zero())
		}
		for g := 0; g < a.cols; g += 8 { // TA's groups of four columns of a
			a.Set(rng.Intn(a.rows), g+rng.Intn(min(4, a.cols-g)), zero())
		}
	}
}

// plantInf sets about a fifth of b to ±Inf.
func plantInf(b *Tensor, rng *RNG) {
	inf := float32(math.Inf(1))
	for i := range b.data {
		if rng.Intn(5) == 0 {
			b.data[i] = inf * float32(1-2*rng.Intn(2))
		}
	}
}

// mustBitEqual fails unless got and want hold the same float32 bit patterns,
// NaN payloads included.
func mustBitEqual(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.rows, got.cols, want.rows, want.cols)
	}
	if i := bitsEqual(got.data, want.data); i >= 0 {
		t.Fatalf("%s: element %d = %v (%#x), scalar kernel %v (%#x)", what, i,
			got.data[i], math.Float32bits(got.data[i]), want.data[i], math.Float32bits(want.data[i]))
	}
}

// poisoned returns a rows x cols tensor filled with NaN: the GEMMs write every
// element of their destination, so nothing of it may survive into a result.
func poisoned(rows, cols int) *Tensor {
	t := New(rows, cols)
	t.Fill(float32(math.NaN()))
	return t
}

// scalarMatMul is the unblocked ikj kernel gemmRows replaced: one
// zero-skipping add per term, k ascending. The blocked kernel must reproduce
// it bit for bit.
func scalarMatMul(a, b *Tensor) *Tensor {
	dst := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		dr := dst.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				dr[j] += float32(av * bv)
			}
		}
	}
	return dst
}

// TestMatMulBlockedBitIdenticalToScalar runs MatMulInto into a NaN-poisoned
// destination, which must come out exactly as the scalar kernel's.
func TestMatMulBlockedBitIdenticalToScalar(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(43)
		// M x K @ K x N: the j tail (N%4), N < 4, empty operands, K past one
		// k-block (kBlock), M around groups of four rows (the tile's), and both
		// the serial and the parallelRows branch (M*K*N either side of
		// gemmParallelThreshold).
		for _, dims := range [][3]int{{0, 3, 2}, {3, 0, 2}, {2, 3, 0}, {8, 0, 5}, {1, 1, 1}, {3, 5, 7}, {4, 4, 4},
			{5, 6, 17}, {6, 70, 16}, {7, 2, 9}, {9, 65, 33}, {13, 130, 20}, {31, 17, 23}, {64, 32, 31}, {64, 32, 32},
			{130, 64, 32}, {301, 33, 18}, {1000, 64, 3}, {9, 130, 7}, {40, 200, 33}} {
			M, K, N := dims[0], dims[1], dims[2]
			for _, variant := range bitPinVariants {
				a := RandNormal(M, K, 0, 1, rng)
				b := RandNormal(K, N, 0, 1, rng)
				plantSpecials(variant, a, b, rng)
				got := poisoned(M, N)
				MatMulInto(got, a, b)
				want := scalarMatMul(a, b)
				mustBitEqual(t, fmt.Sprintf("%v/%s", dims, variant), got, want)

				// MatMulBiasInto is the product followed by the bias pass.
				bias := RandNormal(1, N, 0, 1, rng)
				plantSpecials(variant, bias, bias, rng)
				AddRowVector(want, bias)
				MatMulBiasInto(got, a, b, bias, false)
				mustBitEqual(t, fmt.Sprintf("%v/%s bias", dims, variant), got, want)
				want = scalarMatMul(a, b)
				addBiasReLUBranchy(want.data, want.data, bias.data)
				MatMulBiasInto(got, a, b, bias, true)
				mustBitEqual(t, fmt.Sprintf("%v/%s bias+relu", dims, variant), got, want)
			}
		}
	})
}

// scalarMatMulTA is the unblocked kernel MatMulTAInto replaced: k outermost,
// one zero-skipping add per term. The blocked kernel must reproduce it bit
// for bit.
func scalarMatMulTA(a, b *Tensor) *Tensor {
	dst := New(a.cols, b.cols)
	for k := 0; k < a.rows; k++ {
		for i, av := range a.Row(k) {
			if av == 0 {
				continue
			}
			dr := dst.Row(i)
			for j, bv := range b.Row(k) {
				dr[j] += float32(av * bv)
			}
		}
	}
	return dst
}

func TestMatMulTABlockedBitIdenticalToScalar(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(41)
		// Odd shapes exercise the j tail (N%4), K within one k-block and across
		// several, M around groups of four columns of a (the tile's), and both
		// the serial and the parallelRows branch (K*M*N across
		// gemmParallelThreshold).
		for _, dims := range [][3]int{{0, 3, 2}, {0, 9, 2}, {1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {17, 5, 16},
			{70, 6, 17}, {7, 2, 9}, {65, 7, 33}, {130, 9, 16}, {40, 13, 20}, {31, 17, 23}, {130, 64, 32},
			{301, 33, 18}, {1000, 64, 3}} {
			K, M, N := dims[0], dims[1], dims[2]
			for _, variant := range bitPinVariants {
				a := RandNormal(K, M, 0, 1, rng)
				b := RandNormal(K, N, 0, 1, rng)
				plantSpecials(variant, a, b, rng)
				got := poisoned(a.Cols(), b.Cols())
				MatMulTAInto(got, a, b)
				mustBitEqual(t, fmt.Sprintf("%v/%s", dims, variant), got, scalarMatMulTA(a, b))
			}
		}
	})
}

// scalarMatMulTB is the dot loop MatMulTBInto replaced: each element sums
// a[i,k]·b[j,k] from +0 in ascending k, one rounded product and one add per
// term, no term skipped — 0·Inf is NaN here.
func scalarMatMulTB(a, b *Tensor) *Tensor {
	dst := New(a.rows, b.rows)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.rows; j++ {
			var s float32
			for k, av := range a.Row(i) {
				s += float32(av * b.At(j, k))
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func TestMatMulTBBitIdenticalToScalar(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(47)
		// M x K @ (N x K)ᵀ: N and K off multiples of 4, empty operands, M around
		// groups of four rows (the tile's), and both the serial and the
		// parallelRows branch.
		for _, dims := range [][3]int{{0, 3, 2}, {3, 0, 2}, {2, 3, 0}, {8, 0, 5}, {1, 1, 1}, {3, 5, 7}, {4, 4, 4},
			{5, 17, 16}, {6, 16, 17}, {7, 2, 9}, {9, 33, 70}, {13, 130, 20}, {31, 17, 23}, {64, 16, 32},
			{130, 32, 64}, {301, 18, 33}, {1000, 3, 64}, {9, 130, 7}} {
			M, K, N := dims[0], dims[1], dims[2]
			for _, variant := range bitPinVariants {
				a := RandNormal(M, K, 0, 1, rng)
				b := RandNormal(N, K, 0, 1, rng)
				plantSpecials(variant, a, b, rng)
				got := poisoned(M, N)
				MatMulTBInto(got, a, b)
				mustBitEqual(t, fmt.Sprintf("%v/%s", dims, variant), got, scalarMatMulTB(a, b))
			}
		}
	})
}

func TestMatMulTBMatchesMatMulTranspose(t *testing.T) {
	rng := NewRNG(6)
	a := RandNormal(19, 29, 0, 1, rng)
	b := RandNormal(37, 29, 0, 1, rng)
	got := New(a.Rows(), b.Rows())
	MatMulTBInto(got, a, b)
	want := MatMul(a, b.Transpose())
	if !got.AllClose(want, 1e-3) {
		t.Fatalf("MatMulTB mismatch, maxdiff %v", got.MaxAbsDiff(want))
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(New(2, 3), New(4, 5))
}

func TestDot(t *testing.T) {
	if Dot([]float32{1, 2, 3}, []float32{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
}

func TestParallelRowsCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1023} {
		seen := make([]bool, n)
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		ParallelRows(n, func(lo, hi int) {
			<-mu
			for i := lo; i < hi; i++ {
				if seen[i] {
					t.Errorf("row %d visited twice", i)
				}
				seen[i] = true
			}
			mu <- struct{}{}
		})
		for i, s := range seen {
			if !s {
				t.Fatalf("n=%d row %d never visited", n, i)
			}
		}
	}
}

// Property: (A+B)ᵀ = Aᵀ + Bᵀ on random tensors, exercising Add and Transpose.
func TestQuickTransposeAddCommutes(t *testing.T) {
	f := func(seed uint64, r8, c8 uint8) bool {
		rows, cols := int(r8%16)+1, int(c8%16)+1
		rng := NewRNG(seed)
		a := RandNormal(rows, cols, 0, 1, rng)
		b := RandNormal(rows, cols, 0, 1, rng)
		return Add(a, b).Transpose().AllClose(Add(a.Transpose(), b.Transpose()), 1e-5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A(B+C) = AB + AC.
func TestQuickMatMulDistributes(t *testing.T) {
	f := func(seed uint64, m8, k8, n8 uint8) bool {
		m, k, n := int(m8%12)+1, int(k8%12)+1, int(n8%12)+1
		rng := NewRNG(seed)
		a := RandNormal(m, k, 0, 1, rng)
		b := RandNormal(k, n, 0, 1, rng)
		c := RandNormal(k, n, 0, 1, rng)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		return left.AllClose(right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds produced same first value")
	}
}

func TestRNGFloat32Range(t *testing.T) {
	rng := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := rng.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of range: %v", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	rng := NewRNG(13)
	p := rng.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestXavierBounds(t *testing.T) {
	rng := NewRNG(17)
	w := XavierUniform(50, 70, rng)
	a := math.Sqrt(6.0 / 120.0)
	for _, v := range w.Data() {
		if float64(v) < -a || float64(v) >= a {
			t.Fatalf("xavier value %v outside [-%v, %v)", v, a, a)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	rng := NewRNG(23)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal moments off: mean=%v var=%v", mean, variance)
	}
}

func TestBytes(t *testing.T) {
	if New(3, 5).Bytes() != 60 {
		t.Fatal("Bytes wrong")
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := NewRNG(1)
	x := RandNormal(256, 256, 0, 1, rng)
	y := RandNormal(256, 256, 0, 1, rng)
	out := New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y)
	}
}

func BenchmarkMatMulTA256(b *testing.B) {
	rng := NewRNG(1)
	x := RandNormal(256, 256, 0, 1, rng)
	y := RandNormal(256, 256, 0, 1, rng)
	out := New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTAInto(out, x, y)
	}
}

func TestRowSliceBoundsPanics(t *testing.T) {
	m := New(3, 2)
	for _, r := range [][2]int{{-1, 2}, {0, 4}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RowSlice(%d,%d) did not panic", r[0], r[1])
				}
			}()
			m.RowSlice(r[0], r[1])
		}()
	}
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).CopyFrom(New(2, 3))
}

func TestAddIntoAliasing(t *testing.T) {
	a := FromRows([][]float32{{1, 2}})
	b := FromRows([][]float32{{10, 20}})
	AddInto(a, a, b) // dst aliases a
	if !a.Equal(FromRows([][]float32{{11, 22}})) {
		t.Fatalf("aliased AddInto = %v", a)
	}
	AddInto(b, a, b) // dst aliases b
	if !b.Equal(FromRows([][]float32{{21, 42}})) {
		t.Fatalf("AddInto into b = %v", b)
	}
	c := New(1, 2)
	AddInto(c, a, b) // dst aliases neither
	if !c.Equal(FromRows([][]float32{{32, 64}})) || !a.Equal(FromRows([][]float32{{11, 22}})) {
		t.Fatalf("AddInto into a third tensor = %v (a = %v)", c, a)
	}
	b = FromRows([][]float32{{10, 20}})
	MulInto(b, b, b) // dst aliases both
	if !b.Equal(FromRows([][]float32{{100, 400}})) {
		t.Fatalf("aliased MulInto = %v", b)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromRows([][]float32{{1, 5}})
	b := FromRows([][]float32{{2, 3}})
	if d := a.MaxAbsDiff(b); d != 2 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
}

func TestStringForms(t *testing.T) {
	small := FromRows([][]float32{{1, 2}})
	if s := small.String(); s == "" || len(s) < 5 {
		t.Fatal("small tensor String broken")
	}
	big := New(100, 100)
	if s := big.String(); s != "Tensor(100x100)" {
		t.Fatalf("big tensor String = %q", s)
	}
}

func TestSumRowsOfEmpty(t *testing.T) {
	m := New(0, 3)
	s := FromRows([][]float32{{7, 7, 7}})
	SumRowsInto(s, m)
	if Norm(s) != 0 {
		t.Fatal("SumRows of empty wrong")
	}
}

// TestElementwiseIntoMatchScalarLoops holds the element-wise ops the row
// kernels run — AddInto into a third tensor, ScaleInto, MulColVecInto and
// ReLUBackwardSumRowsInto — to the scalar loops they replaced, bit for bit,
// over every value class and odd shapes, in every kernel binding.
func TestElementwiseIntoMatchScalarLoops(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(107)
		for _, class := range rowValueClasses {
			for _, sh := range [][2]int{{0, 3}, {1, 1}, {3, 7}, {5, 16}, {9, 33}, {4, 70}} {
				rows, cols := sh[0], sh[1]
				fill := func(x *Tensor) *Tensor {
					for i := range x.data {
						x.data[i] = rowValue(class, rng)
					}
					return x
				}
				a, b, o := fill(New(rows, cols)), fill(New(rows, cols)), fill(New(rows, cols))
				c := make([]float32, rows)
				for i := range c {
					c[i] = rowValue(class, rng)
				}
				s := rowValue(class, rng)
				what := fmt.Sprintf("%s %dx%d", class, rows, cols)

				want := New(rows, cols)
				for i := range want.data {
					want.data[i] = a.data[i] + b.data[i]
				}
				got := poisoned(rows, cols)
				AddInto(got, a, b)
				mustBitEqual(t, "AddInto "+what, got, want)

				for i := range want.data {
					want.data[i] = a.data[i] * s
				}
				ScaleInto(got, a, s)
				mustBitEqual(t, "ScaleInto "+what, got, want)

				for i := range want.data {
					want.data[i] = a.data[i] * c[i/max(cols, 1)]
				}
				MulColVecInto(got, a, c)
				mustBitEqual(t, "MulColVecInto "+what, got, want)

				reluBackwardBranchy(want.data, a.data, o.data)
				wantSum := New(1, cols)
				SumRowsInto(wantSum, want)
				gotSum := poisoned(1, cols)
				ReLUBackwardSumRowsInto(got, gotSum, a, o)
				mustBitEqual(t, "ReLUBackwardSumRowsInto "+what, got, want)
				mustBitEqual(t, "ReLUBackwardSumRowsInto sum "+what, gotSum, wantSum)
			}
		}
		mustPanic(t, "tensor: ", func() { MulColVecInto(New(2, 2), New(2, 2), []float32{1}) })
		mustPanic(t, "tensor: ", func() { ReLUBackwardSumRowsInto(New(2, 2), New(1, 3), New(2, 2), New(2, 2)) })
		mustPanic(t, "aliases", func() { x := New(2, 2); MatMulBiasInto(x, New(2, 2), New(2, 2), x.RowSlice(0, 1), false) })
	})
}
