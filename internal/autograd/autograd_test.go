package autograd

import (
	"math"
	"math/rand"
	"testing"

	"reffil/internal/tensor"
)

const (
	gcEps = 1e-5
	gcTol = 1e-5
)

func randParam(rng *rand.Rand, shape ...int) *Value {
	return Param(tensor.RandN(rng, 1, shape...))
}

func TestBackwardRequiresScalar(t *testing.T) {
	x := randParam(rand.New(rand.NewSource(1)), 2, 2)
	if err := Backward(x); err == nil {
		t.Fatal("Backward on non-scalar must error")
	}
}

func TestBackwardRequiresGradRoot(t *testing.T) {
	c := Constant(tensor.Scalar(1))
	if err := Backward(c); err == nil {
		t.Fatal("Backward on constant root must error")
	}
}

func TestSimpleChain(t *testing.T) {
	// y = sum(3x + 2) -> dy/dx = 3 everywhere.
	x := Param(tensor.FromSlice([]float64{1, 2, 3}, 3))
	y := Sum(AddScalar(Scale(x, 3), 2))
	if err := Backward(y); err != nil {
		t.Fatal(err)
	}
	want := tensor.Full(3, 3)
	if !x.Grad.AllClose(want, 1e-12) {
		t.Fatalf("grad = %v, want %v", x.Grad, want)
	}
}

func TestGradAccumulationAcrossUses(t *testing.T) {
	// y = sum(x) + sum(x) -> dy/dx = 2.
	x := Param(tensor.FromSlice([]float64{1, 2}, 2))
	y := Add(Sum(x), Sum(x))
	if err := Backward(y); err != nil {
		t.Fatal(err)
	}
	if !x.Grad.AllClose(tensor.Full(2, 2), 1e-12) {
		t.Fatalf("grad = %v, want all 2", x.Grad)
	}
}

func TestGradCheckBinaryOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randParam(rng, 2, 3)
	b := randParam(rng, 2, 3)
	tests := []struct {
		name string
		f    func() (*Value, error)
	}{
		{"add", func() (*Value, error) { return Sum(Add(a, b)), nil }},
		{"mul", func() (*Value, error) { return Sum(Mul(a, b)), nil }},
		{"mixed", func() (*Value, error) { return Mean(Mul(Add(a, b), Add(a, Neg(b)))), nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := GradCheck(tt.f, []*Value{a, b}, gcEps, gcTol); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGradCheckBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randParam(rng, 2, 3)
	row := randParam(rng, 3)
	col := randParam(rng, 2, 1)
	f := func() (*Value, error) {
		return Sum(Mul(Add(a, row), col)), nil
	}
	if err := GradCheck(f, []*Value{a, row, col}, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

func TestGradCheckUnaryOps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randParam(rng, 3, 2)
	tests := []struct {
		name   string
		inputs []*Value
		f      func() (*Value, error)
	}{
		{"relu", []*Value{x}, func() (*Value, error) { return Sum(ReLU(x)), nil }},
		{"square", []*Value{x}, func() (*Value, error) { return Sum(square(x)), nil }},
		{"neg", []*Value{x}, func() (*Value, error) { return Sum(Neg(x)), nil }},
		{"mean", []*Value{x}, func() (*Value, error) { return Mean(x), nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := GradCheck(tt.f, tt.inputs, gcEps, gcTol); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGradCheckSumMeanAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randParam(rng, 2, 3, 2)
	for axis := 0; axis < 3; axis++ {
		axis := axis
		f := func() (*Value, error) { return Sum(square(SumAxis(x, axis))), nil }
		if err := GradCheck(f, []*Value{x}, gcEps, gcTol); err != nil {
			t.Fatalf("SumAxis %d: %v", axis, err)
		}
		g := func() (*Value, error) { return Sum(square(MeanAxis(x, axis))), nil }
		if err := GradCheck(g, []*Value{x}, gcEps, gcTol); err != nil {
			t.Fatalf("MeanAxis %d: %v", axis, err)
		}
	}
}

func TestGradCheckMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 4, 2)
	f := func() (*Value, error) { return Sum(square(MatMul(a, b))), nil }
	if err := GradCheck(f, []*Value{a, b}, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

func TestGradCheckBatchMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randParam(rng, 2, 3, 4)
	b := randParam(rng, 2, 4, 2)
	f := func() (*Value, error) { return Sum(square(BatchMatMul(a, b))), nil }
	if err := GradCheck(f, []*Value{a, b}, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

func TestGradCheckLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randParam(rng, 2, 3)
	w := randParam(rng, 3, 4)
	b := randParam(rng, 4)
	f := func() (*Value, error) { return Mean(square(Linear(x, w, b))), nil }
	if err := GradCheck(f, []*Value{x, w, b}, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

func TestGradCheckShapeOps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randParam(rng, 2, 3, 4)
	y := randParam(rng, 2, 3, 4)
	tests := []struct {
		name string
		f    func() (*Value, error)
	}{
		{"reshape", func() (*Value, error) { return Sum(square(Reshape(x, 6, 4))), nil }},
		{"permute", func() (*Value, error) { return Sum(square(Permute(x, 2, 0, 1))), nil }},
		{"concat", func() (*Value, error) { return Sum(square(Concat(1, x, y))), nil }},
		{"narrow", func() (*Value, error) { return Sum(square(Narrow(x, 2, 1, 3))), nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := GradCheck(tt.f, []*Value{x, y}, gcEps, gcTol); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGradCheckEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	table := randParam(rng, 5, 3)
	ids := []int{0, 2, 2, 4}
	f := func() (*Value, error) { return Sum(square(Embedding(nil, table, ids))), nil }
	if err := GradCheck(f, []*Value{table}, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

func TestGradCheckConv2D(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tests := []struct {
		name        string
		stride, pad int
	}{
		{"stride1 pad1", 1, 1},
		{"stride2 pad1", 2, 1},
		{"stride1 pad0", 1, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := randParam(rng, 2, 2, 5, 5)
			w := randParam(rng, 3, 2, 3, 3)
			b := randParam(rng, 3)
			f := func() (*Value, error) {
				y, err := Conv2D(x, w, b, tt.stride, tt.pad)
				if err != nil {
					return nil, err
				}
				return Mean(square(y)), nil
			}
			if err := GradCheck(f, []*Value{x, w, b}, gcEps, gcTol); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConv2DValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := randParam(rng, 1, 2, 4, 4)
	wBad := randParam(rng, 3, 5, 3, 3)
	if _, err := Conv2D(x, wBad, nil, 1, 1); err == nil {
		t.Fatal("channel mismatch must error")
	}
	w := randParam(rng, 3, 2, 3, 3)
	bBad := randParam(rng, 7)
	if _, err := Conv2D(x, w, bBad, 1, 1); err == nil {
		t.Fatal("bias size mismatch must error")
	}
}

func TestGradCheckLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := randParam(rng, 3, 5)
	gamma := Param(tensor.RandUniform(rng, 0.5, 1.5, 5))
	beta := randParam(rng, 5)
	f := func() (*Value, error) {
		y, err := LayerNorm(x, gamma, beta, 1e-5)
		if err != nil {
			return nil, err
		}
		return Mean(square(y)), nil
	}
	if err := GradCheck(f, []*Value{x, gamma, beta}, gcEps, 1e-4); err != nil {
		t.Fatal(err)
	}
}

func TestGradCheckBatchNormTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := randParam(rng, 3, 2, 2, 2)
	gamma := Param(tensor.RandUniform(rng, 0.5, 1.5, 2))
	beta := randParam(rng, 2)
	f := func() (*Value, error) {
		// Fresh stats each call so the running-stat update does not
		// contaminate the finite-difference evaluation.
		stats := &BatchNormStats{Mean: tensor.New(2), Var: tensor.Ones(2), Momentum: 0.1, Eps: 1e-5}
		y, err := BatchNorm2D(x, gamma, beta, stats, true)
		if err != nil {
			return nil, err
		}
		return Mean(square(y)), nil
	}
	if err := GradCheck(f, []*Value{x, gamma, beta}, gcEps, 1e-4); err != nil {
		t.Fatal(err)
	}
}

func TestGradCheckBatchNormEval(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	x := randParam(rng, 2, 2, 2, 2)
	gamma := Param(tensor.RandUniform(rng, 0.5, 1.5, 2))
	beta := randParam(rng, 2)
	stats := &BatchNormStats{
		Mean:     tensor.RandN(rng, 0.3, 2),
		Var:      tensor.RandUniform(rng, 0.5, 2, 2),
		Momentum: 0.1,
		Eps:      1e-5,
	}
	f := func() (*Value, error) {
		y, err := BatchNorm2D(x, gamma, beta, stats, false)
		if err != nil {
			return nil, err
		}
		return Mean(square(y)), nil
	}
	if err := GradCheck(f, []*Value{x, gamma, beta}, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

func TestBatchNormUpdatesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x := Constant(tensor.RandN(rng, 2, 4, 3, 2, 2))
	gamma := Param(tensor.Ones(3))
	beta := Param(tensor.New(3))
	stats := &BatchNormStats{Mean: tensor.New(3), Var: tensor.Ones(3), Momentum: 0.5, Eps: 1e-5}
	before := stats.Mean.Clone()
	if _, err := BatchNorm2D(x, gamma, beta, stats, true); err != nil {
		t.Fatal(err)
	}
	if stats.Mean.AllClose(before, 1e-12) {
		t.Fatal("training forward must update running mean")
	}
	// Eval forward must not touch stats.
	snapshot := stats.Mean.Clone()
	if _, err := BatchNorm2D(x, gamma, beta, stats, false); err != nil {
		t.Fatal(err)
	}
	if !stats.Mean.AllClose(snapshot, 0) {
		t.Fatal("eval forward must not update running mean")
	}
}

func TestGradCheckSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := randParam(rng, 3, 4)
	f := func() (*Value, error) { return Sum(square(Softmax(x))), nil }
	if err := GradCheck(f, []*Value{x}, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

func TestGradCheckSoftmaxCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randParam(rng, 4, 5)
	labels := []int{0, 2, 4, 2}
	f := func() (*Value, error) { return SoftmaxCrossEntropy(x, labels) }
	if err := GradCheck(f, []*Value{x}, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxCrossEntropyValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := randParam(rng, 2, 3)
	if _, err := SoftmaxCrossEntropy(x, []int{0}); err == nil {
		t.Fatal("label count mismatch must error")
	}
	if _, err := SoftmaxCrossEntropy(x, []int{0, 3}); err == nil {
		t.Fatal("out-of-range label must error")
	}
}

func TestSoftmaxCrossEntropyValueMatchesNaive(t *testing.T) {
	logits := Param(tensor.FromSlice([]float64{1, 2, 3, 0.5, -1, 2}, 2, 3))
	loss, err := SoftmaxCrossEntropy(logits, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	p := tensor.Softmax(logits.T)
	want := -(math.Log(p.At(0, 2)) + math.Log(p.At(1, 0))) / 2
	if math.Abs(loss.T.Item()-want) > 1e-12 {
		t.Fatalf("loss = %v, want %v", loss.T.Item(), want)
	}
}

func TestGradCheckDistillLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	student := randParam(rng, 3, 4)
	teacher := tensor.RandN(rng, 1, 3, 4)
	for _, temp := range []float64{1, 2, 4} {
		temp := temp
		f := func() (*Value, error) { return DistillLoss(student, teacher, temp) }
		if err := GradCheck(f, []*Value{student}, gcEps, gcTol); err != nil {
			t.Fatalf("T=%v: %v", temp, err)
		}
	}
}

func TestDistillLossZeroWhenEqual(t *testing.T) {
	logits := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	student := Param(logits.Clone())
	loss, err := DistillLoss(student, logits, 2)
	if err != nil {
		t.Fatal(err)
	}
	if loss.T.Item() > 1e-12 {
		t.Fatalf("KL of identical distributions = %v, want 0", loss.T.Item())
	}
}

func TestGradCheckCosineSimToConst(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	u := randParam(rng, 3, 4)
	p := tensor.RandN(rng, 1, 5, 4)
	f := func() (*Value, error) {
		s, err := CosineSimToConst(u, p)
		if err != nil {
			return nil, err
		}
		return Sum(square(s)), nil
	}
	if err := GradCheck(f, []*Value{u}, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

func TestCosineSimToConstRange(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	u := randParam(rng, 4, 6)
	p := tensor.RandN(rng, 1, 3, 6)
	s, err := CosineSimToConst(u, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s.T.Data() {
		if v < -1-1e-9 || v > 1+1e-9 {
			t.Fatalf("cosine similarity %v out of [-1,1]", v)
		}
	}
	// Similarity of a row with itself must be 1.
	self, err := CosineSimToConst(u, u.T)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if math.Abs(self.T.At(i, i)-1) > 1e-9 {
			t.Fatalf("self similarity = %v, want 1", self.T.At(i, i))
		}
	}
}

func TestGradCheckCosineSimPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	u := randParam(rng, 4, 5)
	v := tensor.RandN(rng, 1, 4, 5)
	f := func() (*Value, error) {
		s, err := CosineSimPairs(u, v)
		if err != nil {
			return nil, err
		}
		return Sum(square(s)), nil
	}
	if err := GradCheck(f, []*Value{u}, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

func TestCosineSimPairsSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	u := randParam(rng, 3, 4)
	s, err := CosineSimPairs(u, u.T)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if math.Abs(s.T.At(i)-1) > 1e-9 {
			t.Fatalf("self pair similarity = %v, want 1", s.T.At(i))
		}
	}
	if _, err := CosineSimPairs(u, tensor.New(2, 4)); err == nil {
		t.Fatal("row-count mismatch must error")
	}
}

func TestGradCheckInfoNCE(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sims := Param(tensor.RandUniform(rng, -1, 1, 3, 5))
	positives := [][]int{{0}, {2, 3}, {4}}
	for _, tau := range []float64{0.3, 0.7, 1.0} {
		tau := tau
		f := func() (*Value, error) { return InfoNCE(sims, positives, tau) }
		if err := GradCheck(f, []*Value{sims}, gcEps, gcTol); err != nil {
			t.Fatalf("tau=%v: %v", tau, err)
		}
	}
}

func TestInfoNCESkipsEmptyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	sims := Param(tensor.RandUniform(rng, -1, 1, 2, 4))
	loss, err := InfoNCE(sims, [][]int{{}, {1}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := Backward(loss); err != nil {
		t.Fatal(err)
	}
	// Row 0 contributed nothing: its gradient must be exactly zero.
	for j := 0; j < 4; j++ {
		if sims.Grad.At(0, j) != 0 {
			t.Fatal("empty positive row must have zero gradient")
		}
	}
}

func TestInfoNCEAllEmptyIsZeroLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	sims := Param(tensor.RandUniform(rng, -1, 1, 2, 3))
	loss, err := InfoNCE(sims, [][]int{{}, {}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if loss.T.Item() != 0 {
		t.Fatalf("all-empty InfoNCE loss = %v, want 0", loss.T.Item())
	}
}

func TestInfoNCELowerWhenPositiveDominates(t *testing.T) {
	// A similarity row where the positive is clearly highest must yield a
	// smaller loss than one where a negative dominates.
	good := Param(tensor.FromSlice([]float64{0.9, -0.5, -0.5}, 1, 3))
	bad := Param(tensor.FromSlice([]float64{-0.5, 0.9, 0.9}, 1, 3))
	pos := [][]int{{0}}
	lg, err := InfoNCE(good, pos, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := InfoNCE(bad, pos, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if lg.T.Item() >= lb.T.Item() {
		t.Fatalf("aligned loss %v should be below misaligned loss %v", lg.T.Item(), lb.T.Item())
	}
}

func TestGradCheckL2Penalty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	x := randParam(rng, 3, 2)
	w := tensor.RandUniform(rng, 0, 2, 3, 2)
	ref := tensor.RandN(rng, 1, 3, 2)
	f := func() (*Value, error) { return L2Penalty(x, w, ref) }
	if err := GradCheck(f, []*Value{x}, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

func TestL2PenaltyZeroAtReference(t *testing.T) {
	ref := tensor.FromSlice([]float64{1, 2}, 2)
	x := Param(ref.Clone())
	w := tensor.Ones(2)
	loss, err := L2Penalty(x, w, ref)
	if err != nil {
		t.Fatal(err)
	}
	if loss.T.Item() != 0 {
		t.Fatalf("penalty at reference = %v, want 0", loss.T.Item())
	}
}

func TestGradCheckComposite(t *testing.T) {
	// A miniature of the RefFiL topology: shared trunk feeding two heads
	// whose losses are summed, exercising gradient accumulation through
	// shared parameters.
	rng := rand.New(rand.NewSource(30))
	x := Constant(tensor.RandN(rng, 1, 2, 3))
	trunk := randParam(rng, 3, 4)
	head1 := randParam(rng, 4, 2)
	head2 := randParam(rng, 4, 2)
	labels := []int{0, 1}
	f := func() (*Value, error) {
		h := ReLU(MatMul(x, trunk))
		l1, err := SoftmaxCrossEntropy(MatMul(h, head1), labels)
		if err != nil {
			return nil, err
		}
		l2, err := SoftmaxCrossEntropy(MatMul(h, head2), labels)
		if err != nil {
			return nil, err
		}
		return Add(l1, l2), nil
	}
	if err := GradCheck(f, []*Value{trunk, head1, head2}, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

func TestGradCheckBroadcastBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	v := randParam(rng, 1, 2, 3)
	f := func() (*Value, error) {
		return Sum(square(BroadcastBatch(v, tensor.New(4)))), nil
	}
	if err := GradCheck(f, []*Value{v}, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastBatchTiles(t *testing.T) {
	v := Constant(tensor.FromSlice([]float64{1, 2}, 1, 2))
	out := BroadcastBatch(v, tensor.New(3, 5))
	want := tensor.FromSlice([]float64{1, 2, 1, 2, 1, 2}, 3, 2)
	if !out.T.AllClose(want, 0) {
		t.Fatalf("BroadcastBatch = %v, want %v", out.T, want)
	}
}

func TestTopoSortHandlesDiamond(t *testing.T) {
	// x feeds two branches that rejoin: backward must run each node once.
	x := Param(tensor.FromSlice([]float64{2}, 1))
	a := Scale(x, 3)
	b := Scale(x, 5)
	y := Sum(Add(a, b))
	if err := Backward(y); err != nil {
		t.Fatal(err)
	}
	if got := x.Grad.At(0); got != 8 {
		t.Fatalf("diamond grad = %v, want 8", got)
	}
}

// square is v² as a tape op, for scalarizing gradient checks.
func square(v *Value) *Value { return Mul(v, v) }
