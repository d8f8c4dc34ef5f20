package autograd

import (
	"fmt"
	"math"
	"slices"

	"reffil/internal/tensor"
)

// Softmax applies softmax along the last axis as a differentiable op.
func Softmax(x *Value) *Value {
	return newNode(tensor.Softmax(x.T), "softmax", softmaxBackward, x)
}

func softmaxBackward(n *Value) {
	x := n.parents[0]
	d := x.T.Dim(x.T.NDim() - 1)
	rows := x.T.Size() / d
	g := n.T.Arena().ScratchLike(x.T)
	od, ng, gd := n.T.Data(), n.Grad.Data(), g.Data()
	for r := 0; r < rows; r++ {
		dot := 0.0
		for i := 0; i < d; i++ {
			dot += ng[r*d+i] * od[r*d+i]
		}
		for i := 0; i < d; i++ {
			gd[r*d+i] = od[r*d+i] * (ng[r*d+i] - dot)
		}
	}
	accumulateTemp(x, g)
}

// SoftmaxCrossEntropy computes the mean cross-entropy between logits (B,K)
// and integer labels, fused with softmax for numerical stability.
func SoftmaxCrossEntropy(logits *Value, labels []int) (*Value, error) {
	if logits.T.NDim() != 2 {
		return nil, fmt.Errorf("autograd: SoftmaxCrossEntropy wants 2-D logits, got %v", logits.T.Shape())
	}
	bs, k := logits.T.Dim(0), logits.T.Dim(1)
	if len(labels) != bs {
		return nil, fmt.Errorf("autograd: SoftmaxCrossEntropy has %d labels for batch %d", len(labels), bs)
	}
	for _, y := range labels {
		if y < 0 || y >= k {
			return nil, fmt.Errorf("autograd: label %d out of range [0,%d)", y, k)
		}
	}
	probs := tensor.Softmax(logits.T)
	loss := 0.0
	for i, y := range labels {
		p := probs.At(i, y)
		loss -= math.Log(math.Max(p, 1e-300))
	}
	loss /= float64(bs)
	node := newNode(probs.Arena().Scalar(loss), "softmaxCE", softmaxCEBackward, logits)
	node.idx, node.saved[0] = labels, probs
	return node, nil
}

// softmaxCEBackward reads the labels from n.idx and the softmax from
// n.saved[0].
func softmaxCEBackward(n *Value) {
	labels, probs := n.idx, n.saved[0]
	k := probs.Dim(1)
	up := n.Grad.Item() / float64(len(labels))
	g := probs.Arena().ScratchLike(probs)
	g.CopyFrom(probs)
	gd := g.Data()
	for i, y := range labels {
		gd[i*k+y]--
	}
	g.ScaleInPlace(up)
	accumulateTemp(n.parents[0], g)
}

// DistillLoss is Hinton knowledge distillation: the mean KL divergence
// between the teacher's and student's temperature-softened distributions,
// scaled by T². The teacher is a constant.
func DistillLoss(student *Value, teacher *tensor.Tensor, temperature float64) (*Value, error) {
	if student.T.NDim() != 2 || !student.T.SameShape(teacher) {
		return nil, fmt.Errorf("autograd: DistillLoss shapes %v vs %v", student.T.Shape(), teacher.Shape())
	}
	if temperature <= 0 {
		return nil, fmt.Errorf("autograd: DistillLoss temperature must be positive, got %v", temperature)
	}
	bs := student.T.Dim(0)
	p := tensor.Softmax(tensor.Scale(teacher, 1/temperature))
	q := tensor.Softmax(tensor.Scale(student.T, 1/temperature))
	loss := 0.0
	pd, qd := p.Data(), q.Data()
	for i := range pd {
		if pd[i] > 0 {
			loss += pd[i] * (math.Log(pd[i]) - math.Log(math.Max(qd[i], 1e-300)))
		}
	}
	loss = loss / float64(bs) * temperature * temperature
	node := newNode(q.Arena().Scalar(loss), "distill", distillBackward, student)
	node.f, node.saved[0], node.saved[1] = temperature, p, q
	return node, nil
}

// distillBackward reads the temperature from n.f and the teacher's and
// student's softened distributions from n.saved.
func distillBackward(n *Value) {
	p, q := n.saved[0], n.saved[1]
	pd, qd := p.Data(), q.Data()
	// dL/dz_student = T * (q - p) / B (the T² scale cancels one 1/T
	// from the softened softmax derivative).
	up := n.Grad.Item() * n.f / float64(q.Dim(0))
	g := q.Arena().ScratchLike(q)
	gd := g.Data()
	for i := range gd {
		gd[i] = up * (qd[i] - pd[i])
	}
	accumulateTemp(n.parents[0], g)
}

// CosineSimToConst computes the cosine similarity matrix between rows of
// u (B,d) and rows of the constant prompt bank p (N,d) -> (B,N). Gradients
// flow only into u.
func CosineSimToConst(u *Value, p *tensor.Tensor) (*Value, error) {
	if u.T.NDim() != 2 || p.NDim() != 2 || u.T.Dim(1) != p.Dim(1) {
		return nil, fmt.Errorf("autograd: CosineSimToConst shapes %v vs %v", u.T.Shape(), p.Shape())
	}
	const eps = 1e-12
	bs, d := u.T.Dim(0), u.T.Dim(1)
	n := p.Dim(0)
	ar := tensor.ArenaOf(u.T, p)
	uNormT, pNormT := ar.Scratch(bs), ar.Scratch(n)
	uNorm, pNorm := uNormT.Data(), pNormT.Data()
	for i := 0; i < bs; i++ {
		s := 0.0
		for _, v := range u.T.Data()[i*d : (i+1)*d] {
			s += v * v
		}
		uNorm[i] = math.Max(math.Sqrt(s), eps)
	}
	for j := 0; j < n; j++ {
		s := 0.0
		for _, v := range p.Data()[j*d : (j+1)*d] {
			s += v * v
		}
		pNorm[j] = math.Max(math.Sqrt(s), eps)
	}
	out := ar.Scratch(bs, n)
	for i := 0; i < bs; i++ {
		ui := u.T.Data()[i*d : (i+1)*d]
		for j := 0; j < n; j++ {
			pj := p.Data()[j*d : (j+1)*d]
			dot := 0.0
			for t := 0; t < d; t++ {
				dot += ui[t] * pj[t]
			}
			out.Set(dot/(uNorm[i]*pNorm[j]), i, j)
		}
	}
	node := newNode(out, "cosineSim", cosineSimToConstBackward, u)
	node.saved = [3]*tensor.Tensor{p, uNormT, pNormT}
	return node, nil
}

// cosineSimToConstBackward reads the prompt bank, the norms of u's rows and
// those of the bank's from node.saved.
func cosineSimToConstBackward(node *Value) {
	u, p := node.parents[0], node.saved[0]
	uNorm, pNorm := node.saved[1].Data(), node.saved[2].Data()
	bs, d := u.T.Dim(0), u.T.Dim(1)
	n := p.Dim(0)
	g := node.T.Arena().New(bs, d)
	for i := 0; i < bs; i++ {
		ui := u.T.Data()[i*d : (i+1)*d]
		gi := g.Data()[i*d : (i+1)*d]
		for j := 0; j < n; j++ {
			gij := node.Grad.At(i, j)
			//fedvet:ignore floatbits exact zero-skip: the guard is a pure function of the operand bits, so skipping zero contributions is deterministic
			if gij == 0 {
				continue
			}
			pj := p.Data()[j*d : (j+1)*d]
			sij := node.T.At(i, j)
			inv := 1 / (uNorm[i] * pNorm[j])
			invU2 := 1 / (uNorm[i] * uNorm[i])
			for t := 0; t < d; t++ {
				gi[t] += gij * (pj[t]*inv - sij*ui[t]*invU2)
			}
		}
	}
	accumulateTemp(u, g)
}

// CosineSimPairs computes the row-paired cosine similarity between u (M,d)
// and the constant v (M,d) -> (M,). Gradients flow only into u. It backs
// the key-query pull loss of prompt-pool methods (L2P, DualPrompt).
func CosineSimPairs(u *Value, v *tensor.Tensor) (*Value, error) {
	if u.T.NDim() != 2 || v.NDim() != 2 || u.T.Dim(0) != v.Dim(0) || u.T.Dim(1) != v.Dim(1) {
		return nil, fmt.Errorf("autograd: CosineSimPairs shapes %v vs %v", u.T.Shape(), v.Shape())
	}
	const eps = 1e-12
	m, d := u.T.Dim(0), u.T.Dim(1)
	ar := tensor.ArenaOf(u.T, v)
	out := ar.Scratch(m)
	uNormT, vNormT := ar.Scratch(m), ar.Scratch(m)
	uNorm, vNorm := uNormT.Data(), vNormT.Data()
	for i := 0; i < m; i++ {
		ui := u.T.Data()[i*d : (i+1)*d]
		vi := v.Data()[i*d : (i+1)*d]
		su, sv, dot := 0.0, 0.0, 0.0
		for t := 0; t < d; t++ {
			su += ui[t] * ui[t]
			sv += vi[t] * vi[t]
			dot += ui[t] * vi[t]
		}
		uNorm[i] = math.Max(math.Sqrt(su), eps)
		vNorm[i] = math.Max(math.Sqrt(sv), eps)
		out.Set(dot/(uNorm[i]*vNorm[i]), i)
	}
	node := newNode(out, "cosineSimPairs", cosineSimPairsBackward, u)
	node.saved = [3]*tensor.Tensor{v, uNormT, vNormT}
	return node, nil
}

// cosineSimPairsBackward reads v and the norms of u's and v's rows from
// n.saved.
func cosineSimPairsBackward(n *Value) {
	u, v := n.parents[0], n.saved[0]
	uNorm, vNorm := n.saved[1].Data(), n.saved[2].Data()
	m, d := u.T.Dim(0), u.T.Dim(1)
	g := n.T.Arena().New(m, d) // rows with a zero upstream gradient are skipped
	for i := 0; i < m; i++ {
		gi := n.Grad.At(i)
		//fedvet:ignore floatbits exact zero-skip: the guard is a pure function of the operand bits, so skipping zero contributions is deterministic
		if gi == 0 {
			continue
		}
		ui := u.T.Data()[i*d : (i+1)*d]
		vi := v.Data()[i*d : (i+1)*d]
		si := n.T.At(i)
		inv := 1 / (uNorm[i] * vNorm[i])
		invU2 := 1 / (uNorm[i] * uNorm[i])
		row := g.Data()[i*d : (i+1)*d]
		for t := 0; t < d; t++ {
			row[t] = gi * (vi[t]*inv - si*ui[t]*invU2)
		}
	}
	accumulateTemp(u, g)
}

// InfoNCE computes the mean contrastive loss over rows of a similarity
// matrix sims (B,N) at temperature tau:
//
//	loss_i = -log( Σ_{j∈pos_i} exp(s_ij/τ) / Σ_j exp(s_ij/τ) )
//
// Rows with an empty positive set are skipped. This generalizes the paper's
// Eq. 9 to the multi-positive case used by In-between clients.
func InfoNCE(sims *Value, positives [][]int, tau float64) (*Value, error) {
	if sims.T.NDim() != 2 {
		return nil, fmt.Errorf("autograd: InfoNCE wants 2-D sims, got %v", sims.T.Shape())
	}
	if tau <= 0 {
		return nil, fmt.Errorf("autograd: InfoNCE temperature must be positive, got %v", tau)
	}
	bs, n := sims.T.Dim(0), sims.T.Dim(1)
	if len(positives) != bs {
		return nil, fmt.Errorf("autograd: InfoNCE has %d positive sets for batch %d", len(positives), bs)
	}
	// mask is 1 at each row's positives and 0 elsewhere.
	ar := sims.T.Arena()
	mask := ar.New(bs, n)
	md := mask.Data()
	active := 0
	for i, pos := range positives {
		for _, j := range pos {
			if j < 0 || j >= n {
				mask.Release()
				return nil, fmt.Errorf("autograd: InfoNCE positive index %d out of range [0,%d)", j, n)
			}
			md[i*n+j] = 1
		}
		if len(pos) > 0 {
			active++
		}
	}
	if active == 0 {
		// Degenerate batch: contribute zero loss with zero gradient. The
		// mask is all zeros.
		return Scale(Sum(Mul(sims, NewLeaf(mask, false))), 0), nil
	}

	// softAll[i][j] = softmax over the full row of s/τ,
	// softPos restricted to the positive subset.
	softAll := ar.New(bs, n)
	softPos := ar.New(bs, n)
	exps := ar.Scratch(n).Data() // rewritten in full by every active row
	loss := 0.0
	for i := 0; i < bs; i++ {
		if len(positives[i]) == 0 {
			continue
		}
		row := sims.T.Data()[i*n : (i+1)*n]
		isPos := md[i*n : (i+1)*n]
		maxV := math.Inf(-1)
		for _, v := range row {
			if v/tau > maxV {
				maxV = v / tau
			}
		}
		denom, num := 0.0, 0.0
		for j, v := range row {
			e := math.Exp(v/tau - maxV)
			exps[j] = e
			denom += e
			if isPos[j] > 0 {
				num += e
			}
		}
		loss -= math.Log(num / denom)
		for j := range exps {
			softAll.Set(exps[j]/denom, i, j)
			if isPos[j] > 0 {
				softPos.Set(exps[j]/num, i, j)
			}
		}
	}
	loss /= float64(active)

	node := newNode(ar.Scalar(loss), "infoNCE", infoNCEBackward, sims)
	node.ints[0], node.f = active, tau
	node.saved = [3]*tensor.Tensor{softAll, softPos, mask}
	return node, nil
}

// infoNCEBackward reads the count of rows with positives from node.ints[0], τ
// from node.f, and the two softmaxes and the mask from node.saved.
func infoNCEBackward(node *Value) {
	sims := node.parents[0]
	softAll, softPos, mask := node.saved[0], node.saved[1], node.saved[2]
	bs, n := sims.T.Dim(0), sims.T.Dim(1)
	up := node.Grad.Item() / (node.f * float64(node.ints[0]))
	g := node.T.Arena().New(bs, n) // rows without positives stay zero
	for i := 0; i < bs; i++ {
		isPos := mask.Data()[i*n : (i+1)*n]
		if slices.Max(isPos) < 1 {
			continue // a row without positives
		}
		for j := 0; j < n; j++ {
			d := softAll.At(i, j)
			if isPos[j] > 0 {
				d -= softPos.At(i, j)
			}
			g.Set(up*d, i, j)
		}
	}
	accumulateTemp(sims, g)
}

// L2Penalty returns 0.5 * Σ w_i (x_i - ref_i)², the quadratic penalty used
// by EWC; w and ref are constants of x's shape.
func L2Penalty(x *Value, w, ref *tensor.Tensor) (*Value, error) {
	if !x.T.SameShape(w) || !x.T.SameShape(ref) {
		return nil, fmt.Errorf("autograd: L2Penalty shape mismatch %v/%v/%v", x.T.Shape(), w.Shape(), ref.Shape())
	}
	xd, wd, rd := x.T.Data(), w.Data(), ref.Data()
	loss := 0.0
	for i := range xd {
		dv := xd[i] - rd[i]
		loss += 0.5 * wd[i] * dv * dv
	}
	// x is typically a parameter, a heap leaf: a w or ref wrapped into the
	// step's arena is what puts the penalty's tensors there.
	ar := tensor.ArenaOf(x.T, w, ref)
	node := newNode(ar.Scalar(loss), "l2penalty", l2PenaltyBackward, x)
	node.saved[0], node.saved[1] = w, ref
	return node, nil
}

// l2PenaltyBackward reads w and ref from n.saved.
func l2PenaltyBackward(n *Value) {
	x := n.parents[0]
	xd, wd, rd := x.T.Data(), n.saved[0].Data(), n.saved[1].Data()
	up := n.Grad.Item()
	g := n.T.Arena().ScratchLike(x.T)
	gd := g.Data()
	for i := range xd {
		gd[i] = up * wd[i] * (xd[i] - rd[i])
	}
	accumulateTemp(x, g)
}
