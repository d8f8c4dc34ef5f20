package data

import (
	"fmt"
	"math/rand"
	"sort"
)

// Family is one of the paper's four benchmark dataset families, realized by
// the synthetic generator. Domains appear in the paper's default order; the
// shuffled orders of Tables II/IV are obtained with ReorderDomains.
type Family struct {
	Name    string
	Classes int
	Domains []string
	// Size is the image side length (paper: 32 or 224; scaled down here).
	Size int
	// digits selects glyph prototypes instead of wave prototypes.
	digits bool
	// waves draws each class's wave prototype once, at the family's first
	// wave sample, for every copy of the family (nil for a digits family).
	waves      *waveTable
	transforms map[string]DomainTransform
}

// Paper-default domain orders (Tables I/III).
var (
	digitsFiveDomains     = []string{"mnist", "mnistm", "usps", "svhn", "syn"}
	officeCaltechDomains  = []string{"amazon", "caltech", "webcam", "dslr"}
	pacsDomains           = []string{"photo", "cartoon", "sketch", "artpainting"}
	fedDomainNetDomains   = []string{"clipart", "infograph", "painting", "quickdraw", "real", "sketch"}
	alternateDomainOrders = map[string][]string{
		// Shuffled orders used by Tables II/IV.
		"digitsfive":      {"svhn", "mnist", "syn", "usps", "mnistm"},
		"officecaltech10": {"caltech", "amazon", "dslr", "webcam"},
		"pacs":            {"cartoon", "photo", "sketch", "artpainting"},
		"feddomainnet":    {"infograph", "sketch", "quickdraw", "real", "painting", "clipart"},
	}
)

// FamilyNames lists the available families in the paper's order.
func FamilyNames() []string {
	return []string{"digitsfive", "officecaltech10", "pacs", "feddomainnet"}
}

// NewFamily constructs a benchmark family by name with the given image
// size. The class counts mirror the paper (10, 10, 7, 48); FedDomainNet's
// 48 classes are retained but callers may scale sample counts down.
func NewFamily(name string, size int) (*Family, error) {
	if size < 8 {
		return nil, fmt.Errorf("data: image size %d too small (min 8)", size)
	}
	var f *Family
	switch name {
	case "digitsfive":
		f = &Family{
			Name: name, Classes: 10, Domains: digitsFiveDomains, Size: size, digits: true,
			transforms: map[string]DomainTransform{
				// MNIST: clean grayscale digits.
				"mnist": grayDomain("mnist"),
				// MNIST-M: digits blended over colourful backgrounds,
				// rotated orientation.
				"mnistm": func() DomainTransform {
					t := seededColorDomain("mnistm", 101, 0.5, 2.5, 0.08)
					t.Rotate = 1
					return t
				}(),
				// USPS: blurred, lower resolution feel.
				"usps": func() DomainTransform {
					t := grayDomain("usps")
					t.Blur = 2
					t.Contrast = 1.2
					return t
				}(),
				// SVHN: colour clutter, noise and a scrambled layout.
				"svhn": func() DomainTransform {
					t := seededColorDomain("svhn", 103, 0.6, 5, 0.12)
					t.ShuffleBlocks = size / 4
					t.ShuffleSeed = 1031
					return t
				}(),
				// SYN: synthetic colour digits with mild noise, rotated.
				"syn": func() DomainTransform {
					t := seededColorDomain("syn", 104, 0.25, 1.5, 0.1)
					t.Rotate = 1
					return t
				}(),
			},
		}
	case "officecaltech10":
		f = &Family{
			Name: name, Classes: 10, Domains: officeCaltechDomains, Size: size,
			transforms: map[string]DomainTransform{
				// Amazon: clean product shots on white.
				"amazon": func() DomainTransform {
					t := seededColorDomain("amazon", 201, 0.2, 1, 0.08)
					t.Contrast = 1.1
					return t
				}(),
				// Caltech: textured natural backgrounds, rotated.
				"caltech": func() DomainTransform {
					t := seededColorDomain("caltech", 202, 0.55, 3, 0.1)
					t.Rotate = 1
					return t
				}(),
				// Webcam: dark, low contrast, noisy.
				"webcam": func() DomainTransform {
					t := seededColorDomain("webcam", 203, 0.35, 4, 0.1)
					t.Contrast = 0.8
					t.Rotate = 1
					return t
				}(),
				// DSLR: sharp, high contrast.
				"dslr": func() DomainTransform {
					t := seededColorDomain("dslr", 204, 0.3, 2, 0.08)
					t.Contrast = 1.5
					t.ShuffleBlocks = size / 2
					t.ShuffleSeed = 2041
					return t
				}(),
			},
		}
	case "pacs":
		f = &Family{
			Name: name, Classes: 7, Domains: pacsDomains, Size: size,
			transforms: map[string]DomainTransform{
				// Photo: realistic texture and background.
				"photo": seededColorDomain("photo", 301, 0.45, 3, 0.1),
				// Cartoon: flat colours, strong contrast, no noise.
				"cartoon": func() DomainTransform {
					t := seededColorDomain("cartoon", 302, 0.2, 1, 0.06)
					t.Contrast = 1.6
					t.Rotate = 1
					return t
				}(),
				// Sketch: grayscale edges.
				"sketch": func() DomainTransform {
					t := grayDomain("sketch")
					t.EdgeOnly = true
					t.Invert = true
					t.Rotate = 1
					return t
				}(),
				// Art painting: colour-jittered, blurred textures.
				"artpainting": func() DomainTransform {
					t := seededColorDomain("artpainting", 304, 0.55, 2, 0.1)
					t.Blur = 1
					return t
				}(),
			},
		}
	case "feddomainnet":
		f = &Family{
			Name: name, Classes: 48, Domains: fedDomainNetDomains, Size: size,
			transforms: map[string]DomainTransform{
				"clipart": func() DomainTransform {
					t := seededColorDomain("clipart", 401, 0.2, 1, 0.06)
					t.Contrast = 1.4
					return t
				}(),
				"infograph": func() DomainTransform {
					t := seededColorDomain("infograph", 402, 0.6, 6, 0.1)
					t.Rotate = 1
					return t
				}(),
				"painting": func() DomainTransform {
					t := seededColorDomain("painting", 403, 0.5, 2, 0.1)
					t.Blur = 1
					return t
				}(),
				"quickdraw": func() DomainTransform {
					t := grayDomain("quickdraw")
					t.EdgeOnly = true
					t.Rotate = 1
					return t
				}(),
				"real": func() DomainTransform {
					t := seededColorDomain("real", 405, 0.4, 3, 0.1)
					t.ShuffleBlocks = size / 2
					t.ShuffleSeed = 4051
					return t
				}(),
				"sketch": func() DomainTransform {
					t := grayDomain("sketch")
					t.EdgeOnly = true
					t.Invert = true
					t.Blur = 1
					t.Rotate = 1
					t.ShuffleBlocks = size / 2
					t.ShuffleSeed = 4061
					return t
				}(),
			},
		}
	default:
		return nil, fmt.Errorf("data: unknown family %q (want one of %v)", name, FamilyNames())
	}
	if !f.digits {
		f.waves = &waveTable{classes: f.Classes}
	}
	return f, nil
}

// WithClassLimit returns a copy of the family restricted to the first k
// classes. Scaled-down presets use this to keep the 48-class FedDomainNet
// runs tractable on CPU while preserving every code path; the paper-scale
// preset keeps the full class count.
func (f *Family) WithClassLimit(k int) (*Family, error) {
	if k <= 1 {
		return nil, fmt.Errorf("data: class limit must be at least 2, got %d", k)
	}
	out := *f
	if k < f.Classes {
		out.Classes = k
	}
	return &out, nil
}

// AlternateDomainOrder returns the shuffled domain order the paper uses for
// Tables II/IV.
func (f *Family) AlternateDomainOrder() []string {
	return append([]string(nil), alternateDomainOrders[f.Name]...)
}

// Generate renders balanced train and test datasets for one domain. Both
// sets have nTrain (resp. nTest) examples distributed round-robin over
// classes, rendered with a deterministic per-(domain,seed) RNG.
func (f *Family) Generate(domain string, nTrain, nTest int, seed int64) (train, test *Dataset, err error) {
	t, ok := f.transforms[domain]
	if !ok {
		known := make([]string, 0, len(f.transforms))
		for k := range f.transforms {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, nil, fmt.Errorf("data: family %s has no domain %q (have %v)", f.Name, domain, known)
	}
	if nTrain <= 0 || nTest <= 0 {
		return nil, nil, fmt.Errorf("data: sample counts must be positive, got train=%d test=%d", nTrain, nTest)
	}
	rng := rand.New(rand.NewSource(seed ^ int64(len(domain))<<32 ^ hashString(domain)))
	waves := f.waves.table()
	gen := func(n int, tag string) *Dataset {
		ds := &Dataset{Name: fmt.Sprintf("%s/%s/%s", f.Name, domain, tag), Domain: domain}
		for i := 0; i < n; i++ {
			k := i % f.Classes
			ds.Examples = append(ds.Examples, Example{X: t.Apply(f.Size, k, waves, rng), Y: k})
		}
		return ds
	}
	return gen(nTrain, "train"), gen(nTest, "test"), nil
}

// hashString is a small FNV-1a over the domain name for seed separation.
func hashString(s string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h & 0x7fffffffffffffff)
}
