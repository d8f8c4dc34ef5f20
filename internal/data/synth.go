package data

import (
	"math"
	"math/rand"
	"sync"

	"reffil/internal/tensor"
)

// glyphFont is a 3x5 bitmap font for the ten digit classes, used by the
// Digits-Five family so rendered samples are recognizable digit shapes.
var glyphFont = [10][5]uint8{
	{0b111, 0b101, 0b101, 0b101, 0b111}, // 0
	{0b010, 0b110, 0b010, 0b010, 0b111}, // 1
	{0b111, 0b001, 0b111, 0b100, 0b111}, // 2
	{0b111, 0b001, 0b111, 0b001, 0b111}, // 3
	{0b101, 0b101, 0b111, 0b001, 0b001}, // 4
	{0b111, 0b100, 0b111, 0b001, 0b111}, // 5
	{0b111, 0b100, 0b111, 0b101, 0b111}, // 6
	{0b111, 0b001, 0b010, 0b010, 0b010}, // 7
	{0b111, 0b101, 0b111, 0b101, 0b111}, // 8
	{0b111, 0b101, 0b111, 0b001, 0b111}, // 9
}

// renderGlyph draws the digit glyph for class k onto a size x size
// grayscale canvas, scaled and positioned with the given pixel offsets.
func renderGlyph(canvas []float64, size, k, dx, dy int, thickness float64) {
	scaleX := float64(size-4) / 3
	scaleY := float64(size-4) / 5
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			gx := int(float64(x-2-dx) / scaleX)
			gy := int(float64(y-2-dy) / scaleY)
			if gx < 0 || gx > 2 || gy < 0 || gy > 4 {
				continue
			}
			if glyphFont[k%10][gy]&(1<<(2-gx)) != 0 {
				canvas[y*size+x] = thickness
			}
		}
	}
}

// waveComp is one oriented sinusoid of a wave class prototype.
type waveComp struct{ u, v, phase, amp float64 }

// waveClass is a wave class's prototype: three sinusoids drawn from a
// class-seeded source.
type waveClass [3]waveComp

// drawWaveClass draws class k's prototype components.
func drawWaveClass(k int) waveClass {
	cr := rand.New(rand.NewSource(int64(7919*k + 13)))
	var comps waveClass
	for i := range comps {
		comps[i] = waveComp{
			u:     (cr.Float64()*2 - 1) * 3,
			v:     (cr.Float64()*2 - 1) * 3,
			phase: cr.Float64() * 2 * math.Pi,
			amp:   0.4 + 0.6*cr.Float64(),
		}
	}
	return comps
}

// waveTable holds a family's wave class prototypes, drawn on first use:
// seeding a source costs more than setting a family up, and a family that
// renders no sample needs none.
type waveTable struct {
	classes int
	once    sync.Once
	waves   []waveClass
}

// table returns the prototypes of classes [0, classes), drawing them on the
// first call; a nil table returns nil (glyph classes).
func (t *waveTable) table() []waveClass {
	if t == nil {
		return nil
	}
	t.once.Do(func() {
		t.waves = make([]waveClass, t.classes)
		for k := range t.waves {
			t.waves[k] = drawWaveClass(k)
		}
	})
	return t.waves
}

// renderWave draws a wave class prototype: a superposition of
// class-seeded oriented sinusoids, giving every class a distinct smooth
// texture signature. Used by families whose classes are not digits.
// Per-sample phase and amplitude jitter (driven by rng) softens the class
// boundaries so the task is not solvable by memorizing single images.
func renderWave(canvas []float64, size int, class *waveClass, rng *rand.Rand) {
	comps := *class
	for i := range comps {
		comps[i].phase += (rng.Float64() - 0.5) * 1.0
		comps[i].amp *= 0.75 + 0.5*rng.Float64()
	}
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			fx := float64(x) / float64(size)
			fy := float64(y) / float64(size)
			s := 0.0
			for _, c := range comps {
				s += c.amp * math.Sin(2*math.Pi*(c.u*fx+c.v*fy)+c.phase)
			}
			canvas[y*size+x] = clamp01(0.5 + s/4)
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// DomainTransform describes how a domain distorts the class prototype.
// Each domain of each family instantiates one of these with domain-seeded
// parameters, producing a controlled distribution shift.
type DomainTransform struct {
	Name string
	// ColorMix is a 3x3 channel-mixing matrix applied to the grayscale
	// prototype replicated over RGB; ColorBias shifts each channel.
	ColorMix  [3][3]float64
	ColorBias [3]float64
	// Background in [0,1] blends a domain texture behind the figure.
	Background float64
	// BackgroundFreq sets the texture's spatial frequency.
	BackgroundFreq float64
	// Blur applies this many box-blur passes.
	Blur int
	// EdgeOnly replaces the image with its gradient magnitude (sketch).
	EdgeOnly bool
	// Invert flips intensities (1-x) before colour mixing.
	Invert bool
	// Noise is the std of additive Gaussian pixel noise.
	Noise float64
	// Contrast rescales around 0.5 (1 = unchanged).
	Contrast float64
	// Rotate applies this many quarter-turns (domain-fixed orientation, as
	// in sketch/quickdraw-style domains).
	Rotate int
	// ShuffleBlocks, when positive, splits the image into blocks of this
	// side length and applies a domain-fixed seeded permutation — the
	// partial analogue of permuted-MNIST domain shift. Domains with
	// different spatial layouts contend for convolutional features, which
	// is what makes sequential training actually forget.
	ShuffleBlocks int
	// ShuffleSeed fixes the block permutation per domain.
	ShuffleSeed int64
}

// grayDomain returns an identity-ish transform.
func grayDomain(name string) DomainTransform {
	return DomainTransform{
		Name:     name,
		ColorMix: [3][3]float64{{1, 0, 0}, {1, 0, 0}, {1, 0, 0}},
		Contrast: 1,
	}
}

// seededColorDomain builds a colour transform with domain-seeded mixing.
// Channel gains are drawn with random sign: a domain may encode the figure
// as an intensity increase in one channel and a decrease in another. Signed
// encodings are what make sequential domains genuinely interfere (as
// white-on-black MNIST conflicts with dark-on-light USPS/SVHN digits) —
// with all-positive gains every domain reinforces the same features and
// catastrophic forgetting never materializes.
func seededColorDomain(name string, seed int64, background float64, freq float64, noise float64) DomainTransform {
	dr := rand.New(rand.NewSource(seed))
	t := DomainTransform{Name: name, Background: background, BackgroundFreq: freq, Noise: noise, Contrast: 1}
	for c := 0; c < 3; c++ {
		gain := 0.5 + 0.5*dr.Float64()
		if dr.Intn(2) == 0 {
			// Negative polarity: the figure darkens this channel; the bias
			// lifts the background so values stay in range before clamping.
			t.ColorMix[c][0] = -gain
			t.ColorBias[c] = 0.7 + 0.25*dr.Float64()
		} else {
			t.ColorMix[c][0] = gain
			t.ColorBias[c] = (dr.Float64() - 0.5) * 0.3
		}
	}
	return t
}

// Apply renders one sample: the class figure for class k (the digit glyph
// when waves is nil, else the wave prototype waves[k]), instance-jittered
// by rng, pushed through the domain transform. Returns a (3,size,size)
// image in [0,1].
func (t DomainTransform) Apply(size, k int, waves []waveClass, rng *rand.Rand) *tensor.Tensor {
	gray := make([]float64, size*size)
	if waves == nil {
		dx := rng.Intn(5) - 2
		dy := rng.Intn(5) - 2
		renderGlyph(gray, size, k, dx, dy, 0.7+0.3*rng.Float64())
	} else {
		renderWave(gray, size, &waves[k], rng)
		// Instance jitter: intensity wobble on top of the phase jitter.
		for i := range gray {
			gray[i] = clamp01(gray[i] + (rng.Float64()-0.5)*0.1)
		}
	}

	if t.EdgeOnly {
		gray = edgeMagnitude(gray, size)
	}
	if t.Invert {
		for i := range gray {
			gray[i] = 1 - gray[i]
		}
	}
	for r := 0; r < t.Rotate%4; r++ {
		gray = rotate90(gray, size)
	}
	if t.ShuffleBlocks > 0 {
		gray = shuffleBlocks(gray, size, t.ShuffleBlocks, t.ShuffleSeed)
	}
	for pass := 0; pass < t.Blur; pass++ {
		gray = boxBlur(gray, size)
	}

	img := tensor.New(3, size, size)
	for c := 0; c < 3; c++ {
		plane := img.Data()[c*size*size : (c+1)*size*size]
		for i, g := range gray {
			v := t.ColorMix[c][0]*g + t.ColorBias[c]
			plane[i] = v
		}
	}
	if t.Background > 0 {
		applyBackground(img, size, t.Background, t.BackgroundFreq, rng)
	}
	//fedvet:ignore floatbits exact non-default config gate on a literal, not an accumulation compare
	if t.Contrast != 1 {
		for i, v := range img.Data() {
			img.Data()[i] = 0.5 + (v-0.5)*t.Contrast
		}
	}
	if t.Noise > 0 {
		for i := range img.Data() {
			img.Data()[i] += rng.NormFloat64() * t.Noise
		}
	}
	for i, v := range img.Data() {
		img.Data()[i] = clamp01(v)
	}
	return img
}

// edgeMagnitude computes a simple forward-difference gradient magnitude.
func edgeMagnitude(gray []float64, size int) []float64 {
	out := make([]float64, len(gray))
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			gx, gy := 0.0, 0.0
			if x+1 < size {
				gx = gray[y*size+x+1] - gray[y*size+x]
			}
			if y+1 < size {
				gy = gray[(y+1)*size+x] - gray[y*size+x]
			}
			out[y*size+x] = clamp01(math.Sqrt(gx*gx+gy*gy) * 2)
		}
	}
	return out
}

// rotate90 rotates a square grayscale image a quarter turn clockwise.
func rotate90(gray []float64, size int) []float64 {
	out := make([]float64, len(gray))
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			out[x*size+(size-1-y)] = gray[y*size+x]
		}
	}
	return out
}

// shuffleBlocks splits the image into blocks of side b and applies a
// seed-fixed permutation. Images whose size is not divisible by b keep the
// remainder rows/columns in place.
func shuffleBlocks(gray []float64, size, b int, seed int64) []float64 {
	n := size / b
	if n <= 1 {
		return gray
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n * n)
	out := make([]float64, len(gray))
	copy(out, gray)
	for dst, src := range perm {
		dy, dx := (dst/n)*b, (dst%n)*b
		sy, sx := (src/n)*b, (src%n)*b
		for r := 0; r < b; r++ {
			copy(out[(dy+r)*size+dx:(dy+r)*size+dx+b], gray[(sy+r)*size+sx:(sy+r)*size+sx+b])
		}
	}
	return out
}

// boxBlur applies one 3x3 mean-filter pass with clamped borders.
func boxBlur(gray []float64, size int) []float64 {
	out := make([]float64, len(gray))
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			s, n := 0.0, 0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					yy, xx := y+dy, x+dx
					if yy < 0 || yy >= size || xx < 0 || xx >= size {
						continue
					}
					s += gray[yy*size+xx]
					n++
				}
			}
			out[y*size+x] = s / float64(n)
		}
	}
	return out
}

// applyBackground blends a sinusoidal texture behind the image with random
// per-sample phase so backgrounds are uninformative about the class.
func applyBackground(img *tensor.Tensor, size int, weight, freq float64, rng *rand.Rand) {
	phaseX := rng.Float64() * 2 * math.Pi
	phaseY := rng.Float64() * 2 * math.Pi
	for c := 0; c < 3; c++ {
		plane := img.Data()[c*size*size : (c+1)*size*size]
		chPhase := float64(c) * 1.3
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				fx := float64(x) / float64(size)
				fy := float64(y) / float64(size)
				tex := 0.5 + 0.5*math.Sin(2*math.Pi*freq*fx+phaseX+chPhase)*math.Sin(2*math.Pi*freq*fy+phaseY)
				i := y*size + x
				plane[i] = (1-weight)*plane[i] + weight*tex
			}
		}
	}
}
