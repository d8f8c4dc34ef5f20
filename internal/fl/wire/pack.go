package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"reffil/internal/parallel"
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
//	uvarint key count
//	per key: uvarint name length, name bytes,
//	         uvarint rank, rank × uvarint dims
//	1 raw-mask byte: bit p set = plane p is stored raw, clear = deflated
//	raw planes, ascending p, N bytes each, uncompressed
//	one flate stream of the deflated planes, ascending p (absent when every
//	plane is raw): for the N elements across all listed keys, plane p holds
//	byte p (big endian, most significant first) of XOR(base bits, next bits)
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
// block-wise sweep fanned over internal/parallel — each block of XOR words
// is computed into a stack buffer and immediately scattered into its 8
// plane segments while still cache-hot, instead of one strided 8-way write
// per element. The DEFLATE coders and the plane buffers come from pools,
// and both directions write into storage the caller keeps across calls:
// packing into a Buffer's bytes, unpacking into a DecodeBuffer's or a
// Tracker's tensors. So neither allocates its output in the steady state.

// packLevel is the DEFLATE effort. The payload is zero runs in the high
// planes and incompressible noise in the low ones, so higher levels buy
// almost nothing: on the LwF steady state, level 6 shaves under 1% more
// bytes than level 1 at more than 3× the encode time. BestSpeed wins.
const packLevel = flate.BestSpeed

// Bounds mirrored from the checkpoint format: a corrupt or hostile header
// must never trigger a huge allocation.
const (
	maxPackNameLen = 4096
	maxPackDims    = 16
	maxPackElems   = 1 << 22
)

// planeBlock is the element count of one fused XOR+shuffle block: the block
// of XOR words (8 KiB) lives in a stack buffer that stays L1-resident while
// its 8 plane segments are written.
const planeBlock = 1024

// planeGrainOps prices one element of plane work (8 byte extractions plus
// the XOR) for the parallel grain computation.
const planeGrainOps = 12

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
	// planeBufs pools the 8×N significance-plane buffers.
	planeBufs parallel.ScratchPool[byte]
	// flateWriters and flateReaders pool the DEFLATE coder state (the
	// writer alone is >1 MB of window and hash tables), reset per use.
	flateWriters sync.Pool
	flateReaders sync.Pool
)

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

// spanAt returns the index of the span containing flat element index i.
func spanAt(spans []span, i int) int {
	return sort.Search(len(spans), func(s int) bool { return spans[s].off+len(spans[s].base) > i })
}

// packDelta appends the packed encoding of next's tensors for the given keys,
// relative to base, to dst and returns the extended slice. Every key must
// exist in both dicts with identical element counts (the caller diffs
// compatible dicts). An empty key list is not an error, but callers should
// prefer an empty Packed field for it.
func packDelta(dst []byte, base, next map[string]*tensor.Tensor, keys []string) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
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
		if nt.Size() > maxPackElems {
			// Enforce the decode-side bound symmetrically at encode time: a
			// clear local error beats a remote rejection mid-round.
			return nil, fmt.Errorf("wire: packing key %q with %d elements exceeds %d", k, nt.Size(), maxPackElems)
		}
		if len(k) == 0 || len(k) > maxPackNameLen {
			return nil, fmt.Errorf("wire: packing invalid key name length %d", len(k))
		}
		if nt.NDim() > maxPackDims {
			return nil, fmt.Errorf("wire: packing key %q of rank %d > %d", k, nt.NDim(), maxPackDims)
		}
		spans = append(spans, span{off: total, base: bt.Data(), data: nt.Data()})
		total += nt.Size()
	}
	// Significance planes of the XOR words: plane p of element i lands at
	// planes[p*total+i], so each plane is one contiguous run of same-order
	// bytes for the compressor.
	pb := planeBufs.Get(8 * total)
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
	putUvarint(uint64(len(keys)))
	for _, k := range keys {
		nt := next[k]
		putUvarint(uint64(len(k)))
		buf.WriteString(k)
		putUvarint(uint64(nt.NDim()))
		for d := 0; d < nt.NDim(); d++ {
			putUvarint(uint64(nt.Dim(d)))
		}
	}
	buf.WriteByte(rawMask)
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
// cannot win: order-0 entropy above rawPlaneBits bits/byte. The histogram
// pass costs ~1 cycle/byte against the compressor's ~15, so measuring every
// plane is cheap insurance; the decision depends only on the plane bytes,
// keeping packed output deterministic.
func planeIncompressible(plane []byte) bool {
	if len(plane) < rawPlaneMinLen {
		return false
	}
	var hist [256]int
	for _, v := range plane {
		hist[v]++
	}
	n := float64(len(plane))
	bits := 0.0
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		bits -= p * math.Log2(p)
	}
	return bits > rawPlaneBits
}

// shufflePlanes fills planes with the significance planes of the XOR of
// every span's base and next data: the fused forward sweep. Disjoint element
// ranges touch disjoint plane bytes, so the range fans out over
// internal/parallel; within a chunk, each planeBlock of XOR words is
// computed into a stack buffer and immediately fanned into its 8 plane
// segments while cache-hot.
func shufflePlanes(planes []byte, spans []span, total int) {
	parallel.For(total, parallel.GrainForCost(planeGrainOps, parallel.DefaultChunkOps), func(lo, hi int) {
		var tmp [planeBlock]uint64
		si := spanAt(spans, lo)
		for pos := lo; pos < hi; {
			bhi := pos + planeBlock
			if bhi > hi {
				bhi = hi
			}
			for j := pos; j < bhi; {
				sp := &spans[si]
				end := sp.off + len(sp.base)
				stop := bhi
				if end < stop {
					stop = end
				}
				bd, nd := sp.base, sp.data
				for ; j < stop; j++ {
					rel := j - sp.off
					tmp[j-pos] = math.Float64bits(bd[rel]) ^ math.Float64bits(nd[rel])
				}
				if j == end {
					si++
				}
			}
			nblk := bhi - pos
			for p := 0; p < 8; p++ {
				shift := uint(8 * (7 - p))
				dst := planes[p*total+pos : p*total+bhi]
				for t := 0; t < nblk; t++ {
					dst[t] = byte(tmp[t] >> shift)
				}
			}
			pos = bhi
		}
	})
}

// unshufflePlanes is the exact inverse sweep: it gathers each element's 8
// plane bytes back into XOR words (block-wise, plane segment by plane
// segment, so every read is sequential) and writes base XOR word into each
// span's output data. Same fan-out and determinism argument as
// shufflePlanes.
func unshufflePlanes(planes []byte, spans []span, total int) {
	parallel.For(total, parallel.GrainForCost(planeGrainOps, parallel.DefaultChunkOps), func(lo, hi int) {
		var tmp [planeBlock]uint64
		si := spanAt(spans, lo)
		for pos := lo; pos < hi; {
			bhi := pos + planeBlock
			if bhi > hi {
				bhi = hi
			}
			nblk := bhi - pos
			for t := 0; t < nblk; t++ {
				tmp[t] = uint64(planes[pos+t]) << 56
			}
			for p := 1; p < 8; p++ {
				shift := uint(8 * (7 - p))
				src := planes[p*total+pos : p*total+bhi]
				for t, bv := range src {
					tmp[t] |= uint64(bv) << shift
				}
			}
			for j := pos; j < bhi; {
				sp := &spans[si]
				end := sp.off + len(sp.base)
				stop := bhi
				if end < stop {
					stop = end
				}
				bd, out := sp.base, sp.data
				for ; j < stop; j++ {
					rel := j - sp.off
					out[rel] = math.Float64frombits(math.Float64bits(bd[rel]) ^ tmp[j-pos])
				}
				if j == end {
					si++
				}
			}
			pos = bhi
		}
	})
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
	rd := bytes.NewReader(packed)
	count, err := binary.ReadUvarint(rd)
	if err != nil {
		return fmt.Errorf("wire: packed key count: %w", err)
	}
	// The smallest well-formed entry (1-byte name length, 1-byte name,
	// rank 0) is 3 bytes, so a count the remaining payload cannot possibly
	// hold is rejected before it sizes any allocation.
	if count > uint64(rd.Len())/3 {
		return fmt.Errorf("wire: packed key count %d exceeds payload capacity", count)
	}
	type packKey struct {
		name string
		base *tensor.Tensor
	}
	keys := make([]packKey, 0, count)
	seen := make(map[string]bool, count)
	var nameBuf []byte
	total := 0
	for i := uint64(0); i < count; i++ {
		nameLen, err := binary.ReadUvarint(rd)
		if err != nil {
			return fmt.Errorf("wire: packed entry %d name length: %w", i, err)
		}
		if nameLen == 0 || nameLen > maxPackNameLen {
			return fmt.Errorf("wire: packed entry %d has invalid name length %d", i, nameLen)
		}
		if int(nameLen) > cap(nameBuf) {
			nameBuf = make([]byte, nameLen)
		}
		nameBuf = nameBuf[:nameLen]
		if _, err := io.ReadFull(rd, nameBuf); err != nil {
			return fmt.Errorf("wire: packed entry %d name: %w", i, err)
		}
		name := string(nameBuf)
		rank, err := binary.ReadUvarint(rd)
		if err != nil {
			return fmt.Errorf("wire: packed entry %q rank: %w", name, err)
		}
		if rank > maxPackDims {
			return fmt.Errorf("wire: packed entry %q has rank %d > %d", name, rank, maxPackDims)
		}
		shape := make([]int, rank)
		n := 1
		for d := range shape {
			dim, err := binary.ReadUvarint(rd)
			if err != nil {
				return fmt.Errorf("wire: packed entry %q dim %d: %w", name, d, err)
			}
			if dim > maxPackElems {
				return fmt.Errorf("wire: packed entry %q dim %d = %d too large", name, d, dim)
			}
			shape[d] = int(dim)
			n *= int(dim)
			if n > maxPackElems {
				return fmt.Errorf("wire: packed entry %q exceeds %d elements", name, maxPackElems)
			}
		}
		bt, ok := base[name]
		if !ok {
			return fmt.Errorf("wire: packed patch updates unknown key %q", name)
		}
		if seen[name] {
			return fmt.Errorf("wire: packed patch lists key %q twice", name)
		}
		seen[name] = true
		if !hasShape(bt, shape) {
			return fmt.Errorf("wire: packed entry %q has shape %v, base holds %v", name, shape, bt.Shape())
		}
		keys = append(keys, packKey{name: name, base: bt})
		total += n
	}

	rawMask, err := rd.ReadByte()
	if err != nil {
		return fmt.Errorf("wire: packed raw-plane mask: %w", err)
	}
	pb := planeBufs.Get(8 * total)
	planes := *pb
	defer planeBufs.Put(pb)
	for p := 0; p < 8; p++ {
		if rawMask&(1<<p) == 0 {
			continue
		}
		if _, err := io.ReadFull(rd, planes[p*total:(p+1)*total]); err != nil {
			return fmt.Errorf("wire: packed raw plane %d: %w", p, err)
		}
	}
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
