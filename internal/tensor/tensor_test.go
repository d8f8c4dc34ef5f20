package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	x := New(2, 3)
	if got := x.Size(); got != 6 {
		t.Fatalf("Size() = %d, want 6", got)
	}
	if got := x.NDim(); got != 2 {
		t.Fatalf("NDim() = %d, want 2", got)
	}
	x.Set(5, 1, 2)
	if got := x.At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %v, want 5", got)
	}
	if got := x.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestScalar(t *testing.T) {
	s := Scalar(3.5)
	if got := s.Item(); got != 3.5 {
		t.Fatalf("Item() = %v, want 3.5", got)
	}
	if got := s.NDim(); got != 0 {
		t.Fatalf("NDim() = %d, want 0", got)
	}
}

func TestFromSliceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length should panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestBroadcastShapes(t *testing.T) {
	tests := []struct {
		name    string
		a, b    []int
		want    []int
		wantErr bool
	}{
		{"same", []int{2, 3}, []int{2, 3}, []int{2, 3}, false},
		{"scalar", []int{2, 3}, nil, []int{2, 3}, false},
		{"row", []int{2, 3}, []int{3}, []int{2, 3}, false},
		{"col", []int{2, 1}, []int{2, 3}, []int{2, 3}, false},
		{"both expand", []int{2, 1, 4}, []int{1, 3, 1}, []int{2, 3, 4}, false},
		{"mismatch", []int{2, 3}, []int{4}, nil, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := broadcastShape(nil, tt.a, tt.b)
			if (err != nil) != tt.wantErr {
				t.Fatalf("broadcastShape(nil, %v, %v) err = %v, wantErr %v", tt.a, tt.b, err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("got %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestAddBroadcastRow(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	got := Add(a, b)
	want := FromSlice([]float64{11, 22, 33, 14, 25, 36}, 2, 3)
	if !got.AllClose(want, 0) {
		t.Fatalf("Add broadcast = %v, want %v", got, want)
	}
}

func TestMulBroadcastColumn(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{2, 10}, 2, 1)
	got := Mul(a, b)
	want := FromSlice([]float64{2, 4, 6, 40, 50, 60}, 2, 3)
	if !got.AllClose(want, 0) {
		t.Fatalf("Mul broadcast = %v, want %v", got, want)
	}
}

func TestSubDiv(t *testing.T) {
	a := FromSlice([]float64{4, 9}, 2)
	b := FromSlice([]float64{2, 3}, 2)
	if got := Sub(a, b); !got.AllClose(FromSlice([]float64{2, 6}, 2), 0) {
		t.Fatalf("Sub = %v", got)
	}
}

func TestReduceToInvertsBroadcast(t *testing.T) {
	// Broadcasting b (3,) across (2,3) then reducing back must equal
	// summing the broadcast contributions: each element counted twice.
	g := Ones(2, 3)
	got := ReduceTo(g, []int{3})
	want := FromSlice([]float64{2, 2, 2}, 3)
	if !got.AllClose(want, 0) {
		t.Fatalf("ReduceTo = %v, want %v", got, want)
	}
	// Reducing to (2,1) sums along columns.
	got2 := ReduceTo(FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3), []int{2, 1})
	want2 := FromSlice([]float64{6, 15}, 2, 1)
	if !got2.AllClose(want2, 0) {
		t.Fatalf("ReduceTo(2,1) = %v, want %v", got2, want2)
	}
}

func TestReduceToSameShapeIsCopy(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := ReduceTo(x, []int{2})
	y.Set(9, 0)
	if x.At(0) != 1 {
		t.Fatal("ReduceTo same-shape must return a copy")
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !got.AllClose(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulTransposedVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandN(rng, 1, 4, 5)
	b := RandN(rng, 1, 5, 3)
	want := MatMul(a, b)
	gotT1 := MatMulT1(Transpose(a), b)
	if !gotT1.AllClose(want, 1e-12) {
		t.Fatal("MatMulT1 disagrees with MatMul")
	}
	gotT2 := MatMulT2(a, Transpose(b))
	if !gotT2.AllClose(want, 1e-12) {
		t.Fatal("MatMulT2 disagrees with MatMul")
	}
}

func TestBatchMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandN(rng, 1, 3, 2, 4)
	b := RandN(rng, 1, 3, 4, 5)
	got := BatchMatMul(a, b)
	for i := 0; i < 3; i++ {
		ai := Narrow(a, 0, i, i+1).Reshape(2, 4)
		bi := Narrow(b, 0, i, i+1).Reshape(4, 5)
		want := MatMul(ai, bi)
		gi := Narrow(got, 0, i, i+1).Reshape(2, 5)
		if !gi.AllClose(want, 1e-12) {
			t.Fatalf("batch %d disagrees with per-slice MatMul", i)
		}
	}
}

func TestReshapeInference(t *testing.T) {
	x := New(2, 3, 4)
	y := x.Reshape(4, -1)
	if y.Dim(1) != 6 {
		t.Fatalf("inferred dim = %d, want 6", y.Dim(1))
	}
	// Reshape shares data.
	y.Data()[0] = 7
	if x.Data()[0] != 7 {
		t.Fatal("Reshape must share storage")
	}
}

func TestTranspose(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	got := Transpose(x)
	want := FromSlice([]float64{1, 4, 2, 5, 3, 6}, 3, 2)
	if !got.AllClose(want, 0) {
		t.Fatalf("Transpose = %v, want %v", got, want)
	}
}

func TestPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := RandN(rng, 1, 2, 3, 4)
	y := Permute(x, 2, 0, 1)
	if y.Dim(0) != 4 || y.Dim(1) != 2 || y.Dim(2) != 3 {
		t.Fatalf("Permute shape = %v", y.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				if y.At(k, i, j) != x.At(i, j, k) {
					t.Fatalf("Permute element (%d,%d,%d) mismatch", i, j, k)
				}
			}
		}
	}
	// Permuting twice with inverse restores the original.
	z := Permute(y, 1, 2, 0)
	if !z.AllClose(x, 0) {
		t.Fatal("inverse permutation must restore original")
	}
}

func TestConcatAndNarrowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for axis := 0; axis < 3; axis++ {
		a := RandN(rng, 1, 2, 3, 4)
		b := RandN(rng, 1, 2, 3, 4)
		c := Concat(axis, a, b)
		gotA := Narrow(c, axis, 0, a.Dim(axis))
		gotB := Narrow(c, axis, a.Dim(axis), c.Dim(axis))
		if !gotA.AllClose(a, 0) || !gotB.AllClose(b, 0) {
			t.Fatalf("Concat/Narrow round trip failed on axis %d", axis)
		}
	}
}

func TestNarrowAddInPlace(t *testing.T) {
	dst := New(2, 4)
	src := Ones(2, 2)
	NarrowAddInPlace(dst, 1, 1, src)
	want := FromSlice([]float64{0, 1, 1, 0, 0, 1, 1, 0}, 2, 4)
	if !dst.AllClose(want, 0) {
		t.Fatalf("NarrowAddInPlace = %v, want %v", dst, want)
	}
}

func TestSumMeanAxis(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := SumAxis(x, 0, false); !got.AllClose(FromSlice([]float64{5, 7, 9}, 3), 0) {
		t.Fatalf("SumAxis 0 = %v", got)
	}
	if got := SumAxis(x, 1, false); !got.AllClose(FromSlice([]float64{6, 15}, 2), 0) {
		t.Fatalf("SumAxis 1 = %v", got)
	}
	if got := MeanAxis(x, 1, true); !got.AllClose(FromSlice([]float64{2, 5}, 2, 1), 1e-12) {
		t.Fatalf("MeanAxis keepdim = %v", got)
	}
}

func TestMaxAxisAndArgmax(t *testing.T) {
	x := FromSlice([]float64{1, 9, 3, 7, 2, 5}, 2, 3)
	vals, idx := MaxAxis(x, 1, false)
	if !vals.AllClose(FromSlice([]float64{9, 7}, 2), 0) {
		t.Fatalf("MaxAxis vals = %v", vals)
	}
	if idx[0] != 1 || idx[1] != 0 {
		t.Fatalf("MaxAxis idx = %v", idx)
	}
	am := ArgmaxRows(x)
	if am[0] != 1 || am[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", am)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := RandN(rng, 3, 4, 7)
	s := Softmax(x)
	for r := 0; r < 4; r++ {
		sum := 0.0
		for c := 0; c < 7; c++ {
			v := s.At(r, c)
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v out of [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("softmax row %d sums to %v", r, sum)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	x := FromSlice([]float64{1000, 1001}, 1, 2)
	s := Softmax(x)
	if s.HasNaN() {
		t.Fatal("softmax of large logits must not produce NaN")
	}
	if math.Abs(s.At(0, 0)+s.At(0, 1)-1) > 1e-12 {
		t.Fatal("softmax of large logits must sum to 1")
	}
}

func TestIm2colCol2imIdentityOnOnes(t *testing.T) {
	// With a 1x1 kernel, stride 1 and no padding, im2col is the identity.
	g, err := NewConvGeom(2, 3, 3, 1, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]float64, 2*3*3)
	for i := range img {
		img[i] = float64(i)
	}
	cols := make([]float64, 2*9)
	g.Im2col(img, cols)
	for i := range img {
		if cols[i] != img[i] {
			t.Fatalf("1x1 im2col not identity at %d", i)
		}
	}
	back := make([]float64, len(img))
	g.Col2im(cols, back)
	for i := range img {
		if back[i] != img[i] {
			t.Fatalf("1x1 col2im not identity at %d", i)
		}
	}
}

func TestConvGeomErrors(t *testing.T) {
	if _, err := NewConvGeom(1, 4, 4, 3, 3, 0, 1); err == nil {
		t.Fatal("zero stride must error")
	}
	if _, err := NewConvGeom(1, 2, 2, 5, 5, 1, 0); err == nil {
		t.Fatal("oversized kernel must error")
	}
	if _, err := NewConvGeom(1, 4, 4, 3, 3, 1, -1); err == nil {
		t.Fatal("negative pad must error")
	}
}

func TestCol2imAdjointOfIm2col(t *testing.T) {
	// <im2col(x), y> == <x, col2im(y)> for random x, y: the two ops are
	// adjoint linear maps, which is exactly what conv backward relies on.
	rng := rand.New(rand.NewSource(6))
	g, err := NewConvGeom(2, 5, 5, 3, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2*5*5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	colLen := 2 * 3 * 3 * g.OutH * g.OutW
	y := make([]float64, colLen)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	cols := make([]float64, colLen)
	g.Im2col(x, cols)
	lhs := 0.0
	for i := range cols {
		lhs += cols[i] * y[i]
	}
	back := make([]float64, len(x))
	g.Col2im(y, back)
	rhs := 0.0
	for i := range x {
		rhs += x[i] * back[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestRandNStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := RandN(rng, 2, 100, 100)
	mean := x.Mean()
	if math.Abs(mean) > 0.1 {
		t.Fatalf("RandN mean = %v, want ~0", mean)
	}
	variance := 0.0
	for _, v := range x.Data() {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(x.Size())
	if math.Abs(variance-4) > 0.3 {
		t.Fatalf("RandN variance = %v, want ~4", variance)
	}
}

func TestRandUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := RandUniform(rng, -2, 3, 1000)
	for _, v := range x.Data() {
		if v < -2 || v >= 3 {
			t.Fatalf("RandUniform value %v out of [-2,3)", v)
		}
	}
}

func TestHasNaN(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	if x.HasNaN() {
		t.Fatal("finite tensor flagged as NaN")
	}
	x.Set(math.NaN(), 0)
	if !x.HasNaN() {
		t.Fatal("NaN not detected")
	}
	x.Set(math.Inf(1), 0)
	if !x.HasNaN() {
		t.Fatal("Inf not detected")
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := FromSlice([]float64{1, 0}, 2)
	b := FromSlice([]float64{0, 1}, 2)
	if got := CosineSimilarity(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("cos(a,a) = %v, want 1", got)
	}
	if got := CosineSimilarity(a, b); math.Abs(got) > 1e-12 {
		t.Fatalf("cos(a,b) = %v, want 0", got)
	}
	zero := New(2)
	if got := CosineSimilarity(a, zero); got != 0 {
		t.Fatalf("cos with zero vector = %v, want 0", got)
	}
}

// Property: addition commutes for arbitrary same-shaped tensors.
func TestQuickAddCommutative(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		a := FromSlice(append([]float64(nil), xs[:n]...), n)
		b := FromSlice(append([]float64(nil), ys[:n]...), n)
		return Add(a, b).AllClose(Add(b, a), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ for random matrices.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := RandN(rng, 1, m, k)
		b := RandN(rng, 1, k, n)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		if !lhs.AllClose(rhs, 1e-10) {
			t.Fatalf("transpose identity failed for %dx%dx%d", m, k, n)
		}
	}
}

// Property: SumAxis over both axes equals total Sum.
func TestQuickSumAxisConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 25; trial++ {
		m, n := 1+rng.Intn(6), 1+rng.Intn(6)
		x := RandN(rng, 1, m, n)
		bySteps := SumAxis(x, 0, false).Sum()
		if math.Abs(bySteps-x.Sum()) > 1e-9 {
			t.Fatalf("SumAxis inconsistent with Sum: %v vs %v", bySteps, x.Sum())
		}
	}
}
