package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"reffil/internal/binfmt"
	"reffil/internal/checkpoint"
	"reffil/internal/tensor"
)

// Packed payload: the base-relative dense encoding the delta codec ships
// changed keys in, exploiting that a state dict one round (or one local
// training phase) away from its base is numerically *close* to it even
// where every element's bits changed. Raw float64 payloads are nearly
// incompressible — the low mantissa bits of trained weights are full
// entropy — but the XOR of an element against its base value zeroes the
// sign, the exponent and every leading mantissa bit the two values agree
// on. Packing therefore stores, for the changed keys in order:
//
//	key count
//	per key: name (a string of at most checkpoint.MaxNameLen bytes),
//	         rank, rank × dims
//	1 raw-mask byte: bit p set = plane p is stored raw, clear = deflated
//	raw planes, ascending p, N bytes each, uncompressed
//	one flate stream of the deflated planes, ascending p (absent when every
//	plane is raw): for the N elements across all listed keys, plane p holds
//	byte p (big endian, most significant first) of XOR(base bits, next bits)
//
// The key header is binfmt fields (every integer a minimal varint), under
// checkpoint.CheckEntry's name, rank and element bounds.
//
// The plane shuffle groups the near-zero high-order XOR bytes into long
// zero runs that DEFLATE collapses. The low-order mantissa planes of
// trained weights are full-entropy noise — DEFLATE can only store them,
// at ~15× the cost of a copy — so each plane's byte histogram is measured
// first and planes whose order-0 entropy says "incompressible" bypass the
// compressor entirely (the raw-mask byte records the choice, so decoding
// is unambiguous). The decision is a pure function of the payload, so
// packed bytes stay deterministic. The transform is exactly invertible —
// packing is lossless by construction, bit for bit — and decoding requires
// the same base the encoder diffed against, which the delta framing
// already guarantees (Tracker/Encoder version tracking on both ends).
//
// The format is direction-agnostic: broadcast patches pack the aggregate
// against the worker's acked base, upload patches pack a trained replica
// against the round's broadcast base.
//
// Hot-path mechanics: the XOR and the plane shuffle are fused into one
// block-wise sweep on the calling goroutine. Each block of XOR words is
// computed into a stack buffer, and each group of 8 words in it is
// transposed as an 8×8 byte matrix in registers (transpose8) and stored as
// one 8-byte word per plane: 8 stores per group where a byte loop makes 64.
// Unpacking runs the same transpose from one 8-byte load per plane, and the
// entropy gate counts into 4 interleaved histograms. On a 1M-element dense
// update (BenchmarkShufflePlanes, BenchmarkUnshufflePlanes and
// BenchmarkPlaneGate; one core of a 2-core Xeon VM) the shuffle costs
// 5.1 ms, the unshuffle 4.4 ms and the gate over all 8 planes 5.6 ms,
// against 15.3, 13.6 and 10.3 ms for byte-at-a-time loops; the rest of
// packDelta, nearly all DEFLATE of the compressible planes, costs ~16 ms
// (BenchmarkPackDelta/dense 26 ms). The DEFLATE coders and
// the plane buffers come from pools, and both directions write into storage
// the caller keeps across calls: packing into a Buffer's bytes, unpacking
// into a DecodeBuffer's or a Tracker's tensors. So neither allocates its
// output in the steady state.

// packLevel is the DEFLATE effort. The payload is zero runs in the high
// planes and incompressible noise in the low ones, so higher levels buy
// almost nothing: on the LwF steady state, level 6 shaves under 1% more
// bytes than level 1 at more than 3× the encode time. BestSpeed wins.
const packLevel = flate.BestSpeed

// planeBlock is the element count of one fused XOR+shuffle block: the block
// of XOR words (8 KiB) lives in a stack buffer that stays L1-resident while
// its 8 plane segments are written.
const planeBlock = 1024

// rawPlaneBits is the order-0 entropy threshold (bits/byte, of 8) above
// which a plane is stored raw instead of deflated. At 7.6 bits/byte the
// best possible order-0 ratio is ~95%, and DEFLATE BestSpeed on such noise
// in practice emits stored blocks (≥100% of the input) while still paying
// its full hash-and-match scan. The threshold is deliberately high: a
// borderline plane goes to the compressor, so raw is only chosen when
// compression is hopeless.
const rawPlaneBits = 7.6

// rawPlaneMinLen keeps tiny planes on the DEFLATE path: the histogram of a
// short plane is too sparse for the entropy estimate to mean anything, and
// the compression cost is negligible anyway.
const rawPlaneMinLen = 1024

var (
	// planeBufs pools the 8×N significance-plane buffers as *[]byte, so
	// that putting one back boxes no fresh slice header.
	planeBufs sync.Pool
	// flateWriters and flateReaders pool the DEFLATE coder state (the
	// writer alone is >1 MB of window and hash tables), reset per use.
	flateWriters sync.Pool
	flateReaders sync.Pool
)

// getPlanes returns a pooled plane buffer resliced to n bytes. Its contents
// are unspecified: both sweeps write every byte before reading it.
func getPlanes(n int) *[]byte {
	b, _ := planeBufs.Get().(*[]byte)
	if b == nil {
		b = new([]byte)
	}
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	*b = (*b)[:n]
	return b
}

// getFlateWriter returns a pooled DEFLATE writer reset to w.
func getFlateWriter(w io.Writer) (*flate.Writer, error) {
	if fw, ok := flateWriters.Get().(*flate.Writer); ok {
		fw.Reset(w)
		return fw, nil
	}
	return flate.NewWriter(w, packLevel)
}

// getFlateReader returns a pooled DEFLATE reader reset to r.
func getFlateReader(r io.Reader) io.ReadCloser {
	if fr, ok := flateReaders.Get().(io.ReadCloser); ok {
		fr.(flate.Resetter).Reset(r, nil)
		return fr
	}
	return flate.NewReader(r)
}

// span maps one key's run of the flat element index space (the
// concatenation of all packed keys' elements, in key order) to its base
// data and its counterpart: the next dict's data when packing, the decoded
// output when unpacking.
type span struct {
	off  int
	base []float64
	data []float64
}

// packDelta appends the packed encoding of next's tensors for the given keys,
// relative to base, to dst and returns the extended slice. Every key must
// exist in both dicts with identical element counts (the caller diffs
// compatible dicts). An empty key list is not an error, but callers should
// prefer an empty Packed field for it.
func packDelta(dst []byte, base, next map[string]*tensor.Tensor, keys []string) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	total := 0
	spans := make([]span, 0, len(keys))
	for _, k := range keys {
		nt, bt := next[k], base[k]
		if nt == nil || bt == nil {
			return nil, fmt.Errorf("wire: packing key %q absent from base or next", k)
		}
		if bt.Size() != nt.Size() {
			return nil, fmt.Errorf("wire: packing key %q with %d elements against base of %d", k, nt.Size(), bt.Size())
		}
		// Enforce the decode-side bounds at encode time: a clear local
		// error beats a remote rejection mid-round.
		if _, err := checkpoint.CheckEntry(k, nt.NDim(), nt.Dim); err != nil {
			return nil, fmt.Errorf("wire: packing: %w", err)
		}
		spans = append(spans, span{off: total, base: bt.Data(), data: nt.Data()})
		total += nt.Size()
	}
	// Significance planes of the XOR words: plane p of element i lands at
	// planes[p*total+i], so each plane is one contiguous run of same-order
	// bytes for the compressor.
	pb := getPlanes(8 * total)
	planes := *pb
	defer planeBufs.Put(pb)
	shufflePlanes(planes, spans, total)

	var rawMask byte
	rawBytes := 0
	for p := 0; p < 8; p++ {
		if planeIncompressible(planes[p*total : (p+1)*total]) {
			rawMask |= 1 << p
			rawBytes += total
		}
	}
	// One reservation covers the usual case: headers plus the raw noise
	// planes as-is plus the deflated zero-heavy planes, which compress well
	// below the 2×total this over-reserves for them.
	buf.Grow(64 + 24*len(keys) + rawBytes + 2*total)
	hw := binfmt.Writer{Buf: buf.AvailableBuffer()}
	hw.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		nt := next[k]
		hw.String(k, checkpoint.MaxNameLen)
		hw.Uvarint(uint64(nt.NDim()))
		for d := 0; d < nt.NDim(); d++ {
			hw.Uvarint(uint64(nt.Dim(d)))
		}
	}
	hw.U8(rawMask)
	buf.Write(hw.Buf)
	for p := 0; p < 8; p++ {
		if rawMask&(1<<p) != 0 {
			buf.Write(planes[p*total : (p+1)*total])
		}
	}
	if rawMask != 0xff {
		fw, err := getFlateWriter(buf)
		if err != nil {
			return nil, fmt.Errorf("wire: packing: %w", err)
		}
		defer flateWriters.Put(fw)
		for p := 0; p < 8; p++ {
			if rawMask&(1<<p) != 0 {
				continue
			}
			if _, err := fw.Write(planes[p*total : (p+1)*total]); err != nil {
				return nil, fmt.Errorf("wire: packing planes: %w", err)
			}
		}
		if err := fw.Close(); err != nil {
			return nil, fmt.Errorf("wire: packing planes: %w", err)
		}
	}
	return buf.Bytes(), nil
}

// planeIncompressible reports whether a plane's byte histogram says DEFLATE
// cannot win: order-0 entropy above rawPlaneBits bits/byte. Counting costs
// ~0.7 ns/byte, a third of what DEFLATE spends on the same update's planes,
// so measuring every plane is cheap insurance; the decision depends only on
// the plane bytes, keeping packed output deterministic.
func planeIncompressible(plane []byte) bool {
	return len(plane) >= rawPlaneMinLen && planeEntropy(plane) > rawPlaneBits
}

// planeEntropy is the order-0 entropy of a plane in bits/byte. The bytes are
// counted into 4 interleaved histograms and summed afterwards, so runs of
// equal bytes (the common case in a zero-heavy plane) increment different
// counters instead of each increment waiting on the store of the one before.
// The summed counts are the single-histogram counts, so the entropy is
// bit-identical to counting into one.
func planeEntropy(plane []byte) float64 {
	var hist [4][256]int
	b := plane
	for len(b) >= 4 {
		hist[0][b[0]]++
		hist[1][b[1]]++
		hist[2][b[2]]++
		hist[3][b[3]]++
		b = b[4:]
	}
	for _, v := range b {
		hist[0][v]++
	}
	n := float64(len(plane))
	bits := 0.0
	for v := range hist[0] {
		c := hist[0][v] + hist[1][v] + hist[2][v] + hist[3][v]
		if c == 0 {
			continue
		}
		p := float64(c) / n
		bits -= p * math.Log2(p)
	}
	return bits
}

// transpose8 transposes the 8×8 byte matrix whose row r is word r read big
// endian: output word p holds byte p (most significant first) of every input
// word, in input order. Three mask-and-shift stages swap 4×4, then 2×2, then
// 1×1 blocks across the diagonal, all in registers. A transpose is its own
// inverse, so the same call turns 8 plane words back into 8 XOR words.
func transpose8(w0, w1, w2, w3, w4, w5, w6, w7 uint64) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	const m4, m2, m1 = 0x00000000ffffffff, 0x0000ffff0000ffff, 0x00ff00ff00ff00ff
	t := (w0 ^ w4>>32) & m4
	w0, w4 = w0^t, w4^t<<32
	t = (w1 ^ w5>>32) & m4
	w1, w5 = w1^t, w5^t<<32
	t = (w2 ^ w6>>32) & m4
	w2, w6 = w2^t, w6^t<<32
	t = (w3 ^ w7>>32) & m4
	w3, w7 = w3^t, w7^t<<32

	t = (w0 ^ w2>>16) & m2
	w0, w2 = w0^t, w2^t<<16
	t = (w1 ^ w3>>16) & m2
	w1, w3 = w1^t, w3^t<<16
	t = (w4 ^ w6>>16) & m2
	w4, w6 = w4^t, w6^t<<16
	t = (w5 ^ w7>>16) & m2
	w5, w7 = w5^t, w7^t<<16

	t = (w0 ^ w1>>8) & m1
	w0, w1 = w0^t, w1^t<<8
	t = (w2 ^ w3>>8) & m1
	w2, w3 = w2^t, w3^t<<8
	t = (w4 ^ w5>>8) & m1
	w4, w5 = w4^t, w5^t<<8
	t = (w6 ^ w7>>8) & m1
	w6, w7 = w6^t, w7^t<<8
	return w0, w1, w2, w3, w4, w5, w6, w7
}

// shufflePlanes fills planes with the significance planes of the XOR of
// every span's base and next data: the fused forward sweep. Each planeBlock
// of XOR words is computed into a stack buffer, then every group of 8 words
// is transposed in registers and stored as one 8-byte word per plane; a
// block tail of fewer than 8 elements goes byte by byte.
func shufflePlanes(planes []byte, spans []span, total int) {
	var tmp [planeBlock]uint64
	si := 0
	for pos := 0; pos < total; {
		bhi := min(pos+planeBlock, total)
		for j := pos; j < bhi; {
			sp := &spans[si]
			end := sp.off + len(sp.base)
			stop := min(end, bhi)
			bd, nd := sp.base[j-sp.off:stop-sp.off], sp.data[j-sp.off:stop-sp.off]
			out := tmp[j-pos : stop-pos]
			for t := range out {
				out[t] = math.Float64bits(bd[t]) ^ math.Float64bits(nd[t])
			}
			j = stop
			if j == end {
				si++
			}
		}
		nblk := bhi - pos
		var dst [8][]byte
		for p := range dst {
			dst[p] = planes[p*total+pos : p*total+bhi]
		}
		t := 0
		for ; t+8 <= nblk; t += 8 {
			w := (*[8]uint64)(tmp[t : t+8])
			p0, p1, p2, p3, p4, p5, p6, p7 := transpose8(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7])
			binary.BigEndian.PutUint64(dst[0][t:], p0)
			binary.BigEndian.PutUint64(dst[1][t:], p1)
			binary.BigEndian.PutUint64(dst[2][t:], p2)
			binary.BigEndian.PutUint64(dst[3][t:], p3)
			binary.BigEndian.PutUint64(dst[4][t:], p4)
			binary.BigEndian.PutUint64(dst[5][t:], p5)
			binary.BigEndian.PutUint64(dst[6][t:], p6)
			binary.BigEndian.PutUint64(dst[7][t:], p7)
		}
		for ; t < nblk; t++ {
			for p := range dst {
				dst[p][t] = byte(tmp[t] >> (8 * (7 - p)))
			}
		}
		pos = bhi
	}
}

// unshufflePlanes is the exact inverse sweep: per planeBlock, one 8-byte
// load per plane and a transpose rebuild each group of 8 XOR words (a block
// tail of fewer than 8 is gathered byte by byte), then base XOR word is
// written into each span's output data.
func unshufflePlanes(planes []byte, spans []span, total int) {
	var tmp [planeBlock]uint64
	si := 0
	for pos := 0; pos < total; {
		bhi := min(pos+planeBlock, total)
		nblk := bhi - pos
		var src [8][]byte
		for p := range src {
			src[p] = planes[p*total+pos : p*total+bhi]
		}
		be := binary.BigEndian
		t := 0
		for ; t+8 <= nblk; t += 8 {
			w := (*[8]uint64)(tmp[t : t+8])
			w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = transpose8(
				be.Uint64(src[0][t:]), be.Uint64(src[1][t:]), be.Uint64(src[2][t:]), be.Uint64(src[3][t:]),
				be.Uint64(src[4][t:]), be.Uint64(src[5][t:]), be.Uint64(src[6][t:]), be.Uint64(src[7][t:]))
		}
		for ; t < nblk; t++ {
			var x uint64
			for p := range src {
				x |= uint64(src[p][t]) << (8 * (7 - p))
			}
			tmp[t] = x
		}
		for j := pos; j < bhi; {
			sp := &spans[si]
			end := sp.off + len(sp.base)
			stop := min(end, bhi)
			bd, out := sp.base[j-sp.off:stop-sp.off], sp.data[j-sp.off:stop-sp.off]
			words := tmp[j-pos : stop-pos]
			for t := range out {
				out[t] = math.Float64frombits(math.Float64bits(bd[t]) ^ words[t])
			}
			j = stop
			if j == end {
				si++
			}
		}
		pos = bhi
	}
}

// storageFunc supplies the tensor a decode writes one changed key into,
// given the base's tensor for the key: a tensor of the same shape that the
// caller owns. It may return the base tensor itself, which decodes in place
// — the XOR against the base is elementwise, so each element is read before
// it is overwritten.
type storageFunc func(base *tensor.Tensor) *tensor.Tensor

// unpackDelta applies a packed payload against base: each decoded key's new
// values are written into the tensor storage supplies for it, and out maps
// the key to that tensor. A key listed twice, absent from the base, or
// shaped differently than the base is rejected. Every check runs before
// storage is asked for anything, so a rejected payload writes no tensor and
// no entry of out.
func unpackDelta(base map[string]*tensor.Tensor, packed []byte, out map[string]*tensor.Tensor, storage storageFunc) error {
	d := binfmt.NewReader(packed)
	// The smallest well-formed entry (1-byte name length, 1-byte name,
	// rank 0) is 3 bytes; the count has no bound but the bytes left.
	count := d.Count(math.MaxInt, 3)
	type packKey struct {
		name string
		base *tensor.Tensor
	}
	keys := make([]packKey, 0, count)
	seen := make(map[string]bool, count)
	var shape [checkpoint.MaxDims]int
	total := 0
	for i := 0; i < count && d.Err() == nil; i++ {
		name := d.String(checkpoint.MaxNameLen)
		dims := shape[:d.Count(checkpoint.MaxDims, 1)]
		for k := range dims {
			// A value past math.MaxInt turns negative, which CheckEntry
			// refuses.
			dims[k] = int(d.Uvarint())
		}
		if d.Err() != nil {
			break
		}
		n, err := checkpoint.CheckEntry(name, len(dims), func(k int) int { return dims[k] })
		if err != nil {
			return fmt.Errorf("wire: packed entry %d: %w", i, err)
		}
		bt, ok := base[name]
		switch {
		case !ok:
			return fmt.Errorf("wire: packed patch updates unknown key %q", name)
		case seen[name]:
			return fmt.Errorf("wire: packed patch lists key %q twice", name)
		case !hasShape(bt, dims):
			return fmt.Errorf("wire: packed entry %q has shape %v, base holds %v", name, slices.Clone(dims), bt.Shape())
		}
		seen[name] = true
		keys = append(keys, packKey{name: name, base: bt})
		total += n
	}
	rawMask := d.U8()
	if err := d.Err(); err != nil {
		return fmt.Errorf("wire: packed header: %w", err)
	}
	pb := getPlanes(8 * total)
	planes := *pb
	defer planeBufs.Put(pb)
	for p := 0; p < 8; p++ {
		if rawMask&(1<<p) == 0 {
			continue
		}
		copy(planes[p*total:(p+1)*total], d.Next(uint64(total)))
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("wire: packed raw planes: %w", err)
	}
	rd := bytes.NewReader(d.Rest())
	if rawMask != 0xff {
		fr := getFlateReader(rd)
		release := func() {
			fr.Close()
			flateReaders.Put(fr)
		}
		for p := 0; p < 8; p++ {
			if rawMask&(1<<p) != 0 {
				continue
			}
			if _, err := io.ReadFull(fr, planes[p*total:(p+1)*total]); err != nil {
				release()
				return fmt.Errorf("wire: packed plane %d: %w", p, err)
			}
		}
		// The stream must end exactly where the header said it would, with
		// its final block: a stream cut after the last plane byte is as
		// truncated as one cut before it.
		var extra [1]byte
		if n, err := fr.Read(extra[:]); n != 0 || err != io.EOF {
			release()
			return fmt.Errorf("wire: packed planes do not end after the %d declared elements", total)
		}
		release()
	}
	// bytes.Reader is an io.ByteReader, so the inflater read not one byte
	// past its final block: anything left is not part of the payload.
	if rd.Len() != 0 {
		return fmt.Errorf("wire: %d bytes after the packed planes", rd.Len())
	}

	spans := make([]span, len(keys))
	off := 0
	for i, pk := range keys {
		dst := storage(pk.base)
		spans[i] = span{off: off, base: pk.base.Data(), data: dst.Data()}
		out[pk.name] = dst
		off += pk.base.Size()
	}
	unshufflePlanes(planes, spans, total)
	return nil
}

// hasShape reports whether t has exactly the given shape.
func hasShape(t *tensor.Tensor, shape []int) bool {
	if t.NDim() != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}
