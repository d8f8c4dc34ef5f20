package tensor

import (
	"fmt"
	"slices"
	"sort"
)

// Arena is a step-scoped tensor allocator: it hands out whole tensors —
// header, shape slice and data together — and takes every one of them back
// in a single Reset, so a computation whose shapes repeat (a training step,
// an evaluation batch) stops allocating once the arena is warm.
//
// A tensor drawn from an arena remembers it, and every kernel of this
// package that allocates its result draws it from its operands' arena, so
// whatever is computed from an arena tensor is an arena tensor too: seed a
// computation with Wrap and all of it lives in the arena. The lifetime rule
// follows: nothing drawn since the last Reset — nor any view of it — may be
// used after the next one, or after its own Release. Clone is the way out;
// it always copies to the heap, as does New.
//
// A nil *Arena is the heap: every method works on it and allocates exactly
// what New would, so code written against an arena runs unchanged without
// one.
//
// Free tensors are kept per data capacity, and a request is served by the
// smallest free capacity that holds it, so a batch smaller than the one that
// warmed the arena reuses that batch's buffers instead of growing a second
// set.
//
// The bookkeeping of a step lives there too. Reshape and View of an arena
// or wrapped tensor draw their header, shape included, from a slab the arena
// keeps, and a higher layer keeps its own step-scoped state with the arena
// (Attachment): autograd draws there every tape node whose tensor belongs to
// the arena. Reset takes all of it back with the buffers and clears it — a
// view header's data and a node's tensor become nil — so a view or a node
// used after the Reset that ended its step panics rather than reading what
// the next step drew.
//
// An arena belongs to one goroutine at a time: it has no lock, and every
// kernel runs on the goroutine that calls it, so a computation draws in one
// fixed order. Reset returns the free lists to one order that depends only
// on which buffers the arena holds, so once the arena stops growing, the
// same step is served by the same buffers in the same order every time. An
// arena that changes goroutines (a worker's, a decode buffer's) changes them
// under the lock that hands its owner over.
type Arena struct {
	// caps lists the distinct data capacities ever allocated, ascending;
	// owned[i] holds every tensor of capacity caps[i], in the order they
	// were made, and free[i] the idle ones.
	caps  []int
	owned [][]*Tensor
	free  [][]*Tensor
	// live are the tensors drawn since the last Reset; a tensor's slot is
	// its index here plus one, and Release leaves a nil behind.
	live     []*Tensor
	retained int
	// views holds the view headers drawn since the last Reset, the first
	// nviews of them live, in chunks of viewChunk so that a header never
	// moves; each keeps its shape's capacity across Resets.
	views  [][]Tensor
	nviews int
	// att is the higher layer's step-scoped state (see Attachment).
	att Attachment
}

// viewChunk is the number of view headers an arena allocates at a time.
const viewChunk = 64

// Attachment is step-scoped state that a higher layer keeps with an arena:
// it lives exactly as long as the arena's draws, and the arena's Reset calls
// its Reset once it has taken its tensors back. autograd keeps its tape
// nodes and Backward's sort buffers in one.
type Attachment interface{ Reset() }

// poison, when set, overwrites every buffer Reset reclaims. Tests set it
// (export_test.go) to prove nothing is read across a Reset.
var poison func([]float64)

// sizeOf returns the element count of shape, rejecting negative dimensions.
func sizeOf(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// shapeString keeps shape from escaping through the format
			// arguments, so callers' variadic shapes stay on their stacks.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %s", d, shapeString(shape)))
		}
		n *= d
	}
	return n
}

// New returns a zero-filled tensor of the given shape drawn from a.
func (a *Arena) New(shape ...int) *Tensor { return a.draw(shape, true) }

// Scratch returns a tensor of the given shape drawn from a whose contents
// are unspecified: the caller must write every element before reading any.
func (a *Arena) Scratch(shape ...int) *Tensor { return a.draw(shape, false) }

// NewLike is New with t's shape, read in place.
func (a *Arena) NewLike(t *Tensor) *Tensor { return a.draw(t.shape, true) }

// ScratchLike is Scratch with t's shape, read in place.
func (a *Arena) ScratchLike(t *Tensor) *Tensor { return a.draw(t.shape, false) }

// Scalar returns a 0-dimensional tensor holding v drawn from a.
func (a *Arena) Scalar(v float64) *Tensor {
	t := a.draw(nil, false)
	t.data[0] = v
	return t
}

// Attachment returns the state a higher layer keeps with a, made by mk on
// first use. An arena keeps one: the package that attaches it owns the slot.
// A nil arena keeps none and returns nil.
func (a *Arena) Attachment(mk func() Attachment) Attachment {
	if a == nil {
		return nil
	}
	if a.att == nil {
		a.att = mk()
	}
	return a.att
}

// header returns a view header holding a copy of shape: drawn from a's slab,
// or from the heap when a is nil. The caller sets its data. Shape is only
// copied, so a caller's variadic dimensions stay on its stack.
func (a *Arena) header(shape []int) *Tensor {
	if a == nil {
		return &Tensor{shape: append([]int(nil), shape...)}
	}
	if a.nviews == len(a.views)*viewChunk {
		a.views = append(a.views, make([]Tensor, viewChunk))
	}
	h := &a.views[a.nviews/viewChunk][a.nviews%viewChunk]
	a.nviews++
	h.shape = append(h.shape[:0], shape...)
	h.ar = a
	return h
}

// Wrap returns a view of t that belongs to a — same elements, no copy — so
// that everything computed from it is drawn from a. The view itself is not
// reclaimed by Reset: t keeps owning its data. Reshape and View of it are,
// like those of any arena tensor.
func (a *Arena) Wrap(t *Tensor) *Tensor {
	if a == nil {
		return t
	}
	return &Tensor{shape: t.shape, data: t.data, ar: a}
}

func (a *Arena) draw(shape []int, zero bool) *Tensor {
	n := sizeOf(shape)
	if a == nil {
		return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
	}
	i := sort.SearchInts(a.caps, n)
	for i < len(a.caps) && len(a.free[i]) == 0 {
		i++
	}
	var t *Tensor
	if i < len(a.caps) {
		last := len(a.free[i]) - 1
		t = a.free[i][last]
		a.free[i][last] = nil
		a.free[i] = a.free[i][:last]
	} else {
		t = &Tensor{data: make([]float64, n), ar: a}
		b := a.bucket(n)
		a.owned[b] = append(a.owned[b], t)
		a.retained += 8 * n
		zero = false
	}
	a.live = append(a.live, t)
	t.slot = len(a.live)
	t.shape = append(t.shape[:0], shape...)
	t.data = t.data[:n]
	if zero {
		clear(t.data)
	}
	return t
}

// bucket returns the index of capacity c in caps, inserting it if new.
func (a *Arena) bucket(c int) int {
	i := sort.SearchInts(a.caps, c)
	if i == len(a.caps) || a.caps[i] != c {
		a.caps = slices.Insert(a.caps, i, c)
		a.owned = slices.Insert(a.owned, i, nil)
		a.free = slices.Insert(a.free, i, nil)
	}
	return i
}

// retire ends a live tensor's draw.
func (a *Arena) retire(t *Tensor) {
	if poison != nil {
		poison(t.data[:cap(t.data)])
	}
	a.live[t.slot-1] = nil
	t.slot = 0
}

// Reset takes back every tensor drawn since the last Reset, every view
// header and the attached state. They, and all views of them, are dead from
// here on: a reclaimed view header holds no data. Every free list is rebuilt
// as its owned list reversed, so the next draws take the oldest buffers
// first.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	for _, t := range a.live {
		if t != nil {
			a.retire(t)
		}
	}
	a.live = a.live[:0]
	for i := 0; i < a.nviews; i++ {
		h := &a.views[i/viewChunk][i%viewChunk]
		h.shape, h.data = h.shape[:0], nil
	}
	a.nviews = 0
	if a.att != nil {
		a.att.Reset()
	}
	for i, owned := range a.owned {
		free := a.free[i][:0]
		for j := len(owned) - 1; j >= 0; j-- {
			free = append(free, owned[j])
		}
		a.free[i] = free
	}
}

// Release hands t back to the arena it was drawn from ahead of the next
// Reset, for a temporary the caller knows to be dead: the next draw may
// reuse it, which keeps an arena's footprint near the computation's live
// set instead of its total. On a heap tensor, a view, or a tensor already
// handed back it does nothing.
func (t *Tensor) Release() {
	if t == nil || t.slot == 0 {
		return
	}
	a := t.ar
	a.retire(t)
	b := a.bucket(cap(t.data))
	a.free[b] = append(a.free[b], t)
}

// DrawnFrom reports whether t is a live draw of a: drawn from it since its
// last Reset and not yet Released — not a view, not a Wrap, not a heap
// tensor. Such a tensor is its holder's alone, so it may change holders
// (autograd hands gradient buffers over this way) or be re-shaped in place
// (ReshapeLike). It is false for every tensor when a is nil.
func (t *Tensor) DrawnFrom(a *Arena) bool { return a != nil && t.ar == a && t.slot != 0 }

// Retained returns the bytes of tensor data the arena holds, live or free.
// It grows only when a draw finds no free buffer large enough.
func (a *Arena) Retained() int {
	if a == nil {
		return 0
	}
	return a.retained
}

// Arena returns the arena t was drawn from or wrapped into, nil for a heap
// tensor.
func (t *Tensor) Arena() *Arena { return t.ar }

// ArenaOf returns the arena of the first operand that has one: where a
// result computed from these operands is drawn from.
func ArenaOf(ts ...*Tensor) *Arena {
	for _, t := range ts {
		if t != nil && t.ar != nil {
			return t.ar
		}
	}
	return nil
}
