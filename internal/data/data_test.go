package data

import (
	"math"
	"math/rand"
	"testing"
)

func TestFamilyNamesConstructAll(t *testing.T) {
	for _, name := range FamilyNames() {
		f, err := NewFamily(name, 16)
		if err != nil {
			t.Fatalf("NewFamily(%q): %v", name, err)
		}
		if f.Classes <= 0 || len(f.Domains) == 0 {
			t.Fatalf("family %q malformed: %+v", name, f)
		}
		// Every listed domain must have a transform.
		for _, d := range f.Domains {
			if _, _, err := f.Generate(d, f.Classes, f.Classes, 1); err != nil {
				t.Fatalf("family %q domain %q: %v", name, d, err)
			}
		}
	}
}

// TestWaveTableMatchesFreshDraws pins the per-class wave table to the draw
// it replaced: every entry of every wave family's table must hold, bit for
// bit, the components a fresh source seeded 7919k+13 draws for class k, in
// the order u, v, phase, amp per component — drawn first through a
// class-limited copy, which shares the family's table. A digits family has
// no table.
func TestWaveTableMatchesFreshDraws(t *testing.T) {
	for _, name := range FamilyNames() {
		f, err := NewFamily(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		limited, err := f.WithClassLimit(2)
		if err != nil {
			t.Fatal(err)
		}
		waves := limited.waves.table()
		if f.digits {
			if waves != nil {
				t.Errorf("%s: a digits family holds a wave table", name)
			}
			continue
		}
		if len(waves) != f.Classes {
			t.Fatalf("%s: wave table has %d classes, want %d", name, len(waves), f.Classes)
		}
		for k, class := range waves {
			cr := rand.New(rand.NewSource(int64(7919*k + 13)))
			for i, got := range class {
				u := (cr.Float64()*2 - 1) * 3
				v := (cr.Float64()*2 - 1) * 3
				phase := cr.Float64() * 2 * math.Pi
				amp := 0.4 + 0.6*cr.Float64()
				for _, c := range [][2]float64{{got.u, u}, {got.v, v}, {got.phase, phase}, {got.amp, amp}} {
					if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
						t.Fatalf("%s class %d component %d: table holds %+v, a fresh draw gives {u:%v v:%v phase:%v amp:%v}", name, k, i, got, u, v, phase, amp)
					}
				}
			}
		}
	}
}

func TestFamilyClassCountsMatchPaper(t *testing.T) {
	want := map[string]struct {
		classes, domains int
	}{
		"digitsfive":      {10, 5},
		"officecaltech10": {10, 4},
		"pacs":            {7, 4},
		"feddomainnet":    {48, 6},
	}
	for name, w := range want {
		f, err := NewFamily(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		if f.Classes != w.classes {
			t.Errorf("%s classes = %d, want %d", name, f.Classes, w.classes)
		}
		if len(f.Domains) != w.domains {
			t.Errorf("%s domains = %d, want %d", name, len(f.Domains), w.domains)
		}
	}
}

func TestNewFamilyValidation(t *testing.T) {
	if _, err := NewFamily("nope", 16); err == nil {
		t.Fatal("unknown family must error")
	}
	if _, err := NewFamily("pacs", 4); err == nil {
		t.Fatal("tiny image size must error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	f, err := NewFamily("digitsfive", 16)
	if err != nil {
		t.Fatal(err)
	}
	tr1, te1, err := f.Generate("mnist", 20, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr2, te2, err := f.Generate("mnist", 20, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr1.Examples {
		if !tr1.Examples[i].X.AllClose(tr2.Examples[i].X, 0) {
			t.Fatal("same seed must reproduce identical train data")
		}
	}
	for i := range te1.Examples {
		if !te1.Examples[i].X.AllClose(te2.Examples[i].X, 0) {
			t.Fatal("same seed must reproduce identical test data")
		}
	}
	// Different seed differs.
	tr3, _, err := f.Generate("mnist", 20, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range tr1.Examples {
		if !tr1.Examples[i].X.AllClose(tr3.Examples[i].X, 0) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must produce different data")
	}
}

func TestGenerateBalancedLabels(t *testing.T) {
	f, err := NewFamily("pacs", 12)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := f.Generate("photo", 7*6, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, ex := range tr.Examples {
		if ex.Y < 0 || ex.Y >= 7 {
			t.Fatalf("label %d out of range", ex.Y)
		}
		counts[ex.Y]++
	}
	for k := 0; k < 7; k++ {
		if counts[k] != 6 {
			t.Fatalf("class %d has %d examples, want 6", k, counts[k])
		}
	}
}

func TestGeneratePixelsInRange(t *testing.T) {
	for _, name := range FamilyNames() {
		f, err := NewFamily(name, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Domains {
			tr, _, err := f.Generate(d, 8, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, ex := range tr.Examples {
				for _, v := range ex.X.Data() {
					if v < 0 || v > 1 || math.IsNaN(v) {
						t.Fatalf("%s/%s pixel %v out of [0,1]", name, d, v)
					}
				}
			}
		}
	}
}

func TestDomainsAreStatisticallyDistinct(t *testing.T) {
	// Mean image of the same class must differ across domains: the domain
	// gap the paper's setting depends on.
	f, err := NewFamily("digitsfive", 16)
	if err != nil {
		t.Fatal(err)
	}
	meanImage := func(domain string) []float64 {
		tr, _, err := f.Generate(domain, 30, 10, 5)
		if err != nil {
			t.Fatal(err)
		}
		acc := make([]float64, tr.Examples[0].X.Size())
		n := 0
		for _, ex := range tr.Examples {
			if ex.Y != 3 {
				continue
			}
			for i, v := range ex.X.Data() {
				acc[i] += v
			}
			n++
		}
		for i := range acc {
			acc[i] /= float64(n)
		}
		return acc
	}
	a := meanImage("mnist")
	b := meanImage("svhn")
	dist := 0.0
	for i := range a {
		dist += (a[i] - b[i]) * (a[i] - b[i])
	}
	if math.Sqrt(dist) < 0.5 {
		t.Fatalf("mnist and svhn class means too similar (L2 %v): no domain gap", math.Sqrt(dist))
	}
}

func TestClassesAreDistinguishableWithinDomain(t *testing.T) {
	// A nearest-mean classifier on raw pixels must beat chance comfortably
	// within one domain, otherwise no model could learn the task.
	f, err := NewFamily("digitsfive", 16)
	if err != nil {
		t.Fatal(err)
	}
	tr, te, err := f.Generate("mnist", 200, 100, 11)
	if err != nil {
		t.Fatal(err)
	}
	dim := tr.Examples[0].X.Size()
	means := make([][]float64, 10)
	counts := make([]int, 10)
	for k := range means {
		means[k] = make([]float64, dim)
	}
	for _, ex := range tr.Examples {
		for i, v := range ex.X.Data() {
			means[ex.Y][i] += v
		}
		counts[ex.Y]++
	}
	for k := range means {
		for i := range means[k] {
			means[k][i] /= float64(counts[k])
		}
	}
	correct := 0
	for _, ex := range te.Examples {
		best, bestK := math.Inf(1), -1
		for k := range means {
			d := 0.0
			for i, v := range ex.X.Data() {
				dv := v - means[k][i]
				d += dv * dv
			}
			if d < best {
				best, bestK = d, k
			}
		}
		if bestK == ex.Y {
			correct++
		}
	}
	acc := float64(correct) / float64(len(te.Examples))
	if acc < 0.5 {
		t.Fatalf("nearest-mean accuracy %v too low: classes not learnable", acc)
	}
}

func TestAlternateDomainOrderIsPermutation(t *testing.T) {
	for _, name := range FamilyNames() {
		f, err := NewFamily(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		alt := f.AlternateDomainOrder()
		if len(alt) != len(f.Domains) {
			t.Fatalf("%s alternate order has %d domains, want %d", name, len(alt), len(f.Domains))
		}
		seen := make(map[string]bool)
		for _, d := range alt {
			seen[d] = true
		}
		for _, d := range f.Domains {
			if !seen[d] {
				t.Fatalf("%s alternate order missing domain %q", name, d)
			}
		}
		// Must actually be a different order.
		different := false
		for i := range alt {
			if alt[i] != f.Domains[i] {
				different = true
				break
			}
		}
		if !different {
			t.Fatalf("%s alternate order identical to default", name)
		}
	}
}

func TestBatchesCoverDatasetOnce(t *testing.T) {
	f, err := NewFamily("pacs", 12)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := f.Generate("photo", 23, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	bs, err := Batches(tr, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range bs {
		if b.X.Dim(0) != len(b.Y) {
			t.Fatal("batch X/Y size mismatch")
		}
		total += len(b.Y)
	}
	if total != 23 {
		t.Fatalf("batches cover %d examples, want 23", total)
	}
	if len(bs) != 3 {
		t.Fatalf("got %d batches of size 8 for 23 examples, want 3", len(bs))
	}
}

func TestBatchesValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Batches(&Dataset{}, 4, rng); err == nil {
		t.Fatal("empty dataset must error")
	}
	f, _ := NewFamily("pacs", 12)
	tr, _, _ := f.Generate("photo", 7, 7, 2)
	if _, err := Batches(tr, 0, rng); err == nil {
		t.Fatal("zero batch size must error")
	}
}

func TestBatchIndicesPreserveOrder(t *testing.T) {
	f, _ := NewFamily("pacs", 12)
	tr, _, _ := f.Generate("photo", 10, 7, 2)
	bs, err := BatchIndices(tr, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, idx := range bs {
		for _, j := range idx {
			if j != i {
				t.Fatal("batch indices without an rng must preserve dataset order")
			}
			i++
		}
	}
	if i != tr.Len() {
		t.Fatalf("batch indices cover %d of %d examples", i, tr.Len())
	}
}

func TestPartitionQuantityShift(t *testing.T) {
	f, _ := NewFamily("digitsfive", 12)
	tr, _, _ := f.Generate("mnist", 200, 10, 3)
	rng := rand.New(rand.NewSource(4))
	shards, err := PartitionQuantityShift(tr, 5, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 5 {
		t.Fatalf("got %d shards, want 5", len(shards))
	}
	total := 0
	sizes := make([]int, len(shards))
	for i, s := range shards {
		total += s.Len()
		sizes[i] = s.Len()
		// Every shard must retain the full label space.
		seen := make(map[int]bool)
		for _, ex := range s.Examples {
			seen[ex.Y] = true
		}
		if len(seen) != 10 {
			t.Fatalf("shard %d covers %d classes, want 10", i, len(seen))
		}
	}
	if total != 200 {
		t.Fatalf("shards cover %d examples, want 200", total)
	}
	// Quantity shift: sizes must not all be equal at alpha=1.
	allEqual := true
	for _, s := range sizes[1:] {
		if s != sizes[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatalf("alpha=1 produced equal shard sizes %v: no quantity shift", sizes)
	}
}

func TestPartitionEqualWhenAlphaZero(t *testing.T) {
	f, _ := NewFamily("digitsfive", 12)
	tr, _, _ := f.Generate("mnist", 100, 10, 3)
	rng := rand.New(rand.NewSource(5))
	shards, err := PartitionQuantityShift(tr, 4, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shards {
		if s.Len() < 20 || s.Len() > 30 {
			t.Fatalf("alpha=0 shard size %d outside near-equal range", s.Len())
		}
	}
}

func TestPartitionDeterministicContents(t *testing.T) {
	// Same seed must yield byte-identical shard contents: map iteration
	// order must never leak into the assignment.
	f, _ := NewFamily("digitsfive", 12)
	tr, _, _ := f.Generate("mnist", 100, 10, 3)
	run := func() []*Dataset {
		shards, err := PartitionQuantityShift(tr, 4, 1.0, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		return shards
	}
	a := run()
	b := run()
	for s := range a {
		if a[s].Len() != b[s].Len() {
			t.Fatalf("shard %d sizes differ: %d vs %d", s, a[s].Len(), b[s].Len())
		}
		for i := range a[s].Examples {
			if !a[s].Examples[i].X.AllClose(b[s].Examples[i].X, 0) || a[s].Examples[i].Y != b[s].Examples[i].Y {
				t.Fatalf("shard %d example %d differs between identically-seeded runs", s, i)
			}
		}
	}
}

func TestDomainSpatialTransforms(t *testing.T) {
	// Rotation and block shuffling must be deterministic per domain and
	// must actually move pixels.
	f, _ := NewFamily("officecaltech10", 16)
	a1, _, _ := f.Generate("caltech", 5, 1, 4) // rotated domain
	a2, _, _ := f.Generate("caltech", 5, 1, 4)
	for i := range a1.Examples {
		if !a1.Examples[i].X.AllClose(a2.Examples[i].X, 0) {
			t.Fatal("rotated domain generation not deterministic")
		}
	}
	d1, _, _ := f.Generate("dslr", 5, 1, 4) // shuffled domain
	d2, _, _ := f.Generate("dslr", 5, 1, 4)
	for i := range d1.Examples {
		if !d1.Examples[i].X.AllClose(d2.Examples[i].X, 0) {
			t.Fatal("shuffled domain generation not deterministic")
		}
	}
}

func TestRotate90FourTimesIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	img := make([]float64, 8*8)
	for i := range img {
		img[i] = rng.Float64()
	}
	out := append([]float64(nil), img...)
	for i := 0; i < 4; i++ {
		out = rotate90(out, 8)
	}
	for i := range img {
		if out[i] != img[i] {
			t.Fatal("four quarter turns must be the identity")
		}
	}
	// One turn is not the identity.
	once := rotate90(img, 8)
	same := true
	for i := range img {
		if once[i] != img[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("one quarter turn left the image unchanged")
	}
}

func TestShuffleBlocksIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	img := make([]float64, 16*16)
	for i := range img {
		img[i] = rng.Float64()
	}
	out := shuffleBlocks(img, 16, 4, 99)
	// Same multiset of values.
	sumIn, sumOut := 0.0, 0.0
	for i := range img {
		sumIn += img[i]
		sumOut += out[i]
	}
	if math.Abs(sumIn-sumOut) > 1e-9 {
		t.Fatal("block shuffle changed pixel values")
	}
	// Deterministic per seed, different across seeds.
	again := shuffleBlocks(img, 16, 4, 99)
	for i := range out {
		if out[i] != again[i] {
			t.Fatal("block shuffle not deterministic per seed")
		}
	}
	other := shuffleBlocks(img, 16, 4, 100)
	same := true
	for i := range out {
		if out[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the same shuffle")
	}
}

func TestShuffleBlocksDegenerate(t *testing.T) {
	img := []float64{1, 2, 3, 4}
	// Block size equal to image: single block, no-op.
	out := shuffleBlocks(img, 2, 2, 1)
	for i := range img {
		if out[i] != img[i] {
			t.Fatal("single-block shuffle must be a no-op")
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	f, _ := NewFamily("digitsfive", 12)
	tr, _, _ := f.Generate("mnist", 10, 10, 3)
	rng := rand.New(rand.NewSource(6))
	if _, err := PartitionQuantityShift(tr, 0, 1, rng); err == nil {
		t.Fatal("zero clients must error")
	}
	if _, err := PartitionQuantityShift(tr, 3, -1, rng); err == nil {
		t.Fatal("negative alpha must error")
	}
	if _, err := PartitionQuantityShift(tr, 100, 1, rng); err == nil {
		t.Fatal("more clients than examples must error")
	}
}

func TestMerge(t *testing.T) {
	f, _ := NewFamily("pacs", 12)
	a, _, _ := f.Generate("photo", 7, 7, 1)
	b, _, _ := f.Generate("sketch", 7, 7, 1)
	m := Merge("both", a, b)
	if m.Len() != 14 {
		t.Fatalf("merged length %d, want 14", m.Len())
	}
	if m.Domain != "mixed" {
		t.Fatalf("merged domain %q, want mixed", m.Domain)
	}
	single := Merge("one", a, nil)
	if single.Domain != "photo" {
		t.Fatalf("single-source merge domain %q, want photo", single.Domain)
	}
}

func TestGenerateErrors(t *testing.T) {
	f, _ := NewFamily("pacs", 12)
	if _, _, err := f.Generate("nosuch", 5, 5, 1); err == nil {
		t.Fatal("unknown domain must error")
	}
	if _, _, err := f.Generate("photo", 0, 5, 1); err == nil {
		t.Fatal("zero train count must error")
	}
}
