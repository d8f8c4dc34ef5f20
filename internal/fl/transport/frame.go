package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"reffil/internal/fl"
	"reffil/internal/fl/wire"
	"reffil/internal/tensor"
)

// Every message on a worker connection is one frame: a fixed 12-byte header
// and a body of explicit fields.
//
//	offset  size  field
//	0       4     magic "RFLW"
//	4       2     protocol version (ProtocolVersion)
//	6       1     message type (msgHello … msgPong)
//	7       1     reserved, zero
//	8       4     body length in bytes, at most the type's bound
//
// In a body, an integer is a minimal little-endian base-128 varint (zigzag
// for signed ones), a float64 its 8 IEEE bits little endian, a bool one byte
// 0 or 1, and a string or byte slice a varint length followed by its bytes.
// Each message's write method lists its fields in wire order. Magic and
// version lead every revision of the header, so a reader that finds another
// version reads no further: it reports the mismatch instead of guessing at
// the body.
//
// Neither side copies a payload into a second slice. A sender stages the
// header and the small fields in a buffer it reuses and writes every large
// byte field — a patch's planes or snapshot, a wire-state payload, an
// upload — straight from the slice that holds it. A receiver reads each
// body into one buffer per connection that it reuses across frames; the
// byte fields of a decoded message alias that buffer until the next frame is
// read, so whatever must outlive the message is copied out before then
// (wire.DecodeBuffer.Decode, checkpoint.Unmarshal and wire.Tracker.Apply all
// do).

var frameMagic = [4]byte{'R', 'F', 'L', 'W'}

const (
	frameHeaderLen = 12
	// maxFrameLen bounds a broadcast or ack body (256 MiB): a full snapshot
	// of the model, or a packed delta, must fit in one frame.
	maxFrameLen = 1 << 28
	// frameChunk is how far a read buffer may grow ahead of the bytes that
	// have arrived: a body's declared length never sizes an allocation.
	frameChunk = 4 << 20
	// spliceMin is the length from which a byte field is written from the
	// caller's slice instead of being copied into the staging buffer.
	spliceMin = 512

	// Field bounds, checked by the writer and again by the reader before
	// anything is allocated.
	maxNameLen  = 4096    // codec, dataset and domain names
	maxErrorLen = 1 << 16 // a worker's error report
	maxJobs     = 1 << 16 // JobSpecs in one broadcast
	maxShards   = 64      // ShardSpecs in one JobSpec
	// minJobLen and minShardLen are the shortest encodings of a JobSpec and
	// a ShardSpec (one-byte varints, 8-byte floats): a count the rest of the
	// body cannot hold is rejected.
	minJobLen   = 9 + 8
	minShardLen = 11 + 8
	// maxErrorField is the longest encoding of an error string.
	maxErrorField = 3 + maxErrorLen
)

// msgType is a frame's message type. An Update travels as exactly one of
// msgAck, msgDone and msgPong.
type msgType uint8

const (
	msgHello msgType = iota + 1
	msgHelloAck
	msgBroadcast
	msgAck  // one JobResult
	msgDone // the end of a reply stream, with the handler's error if any
	msgPong // a liveness heartbeat
)

// maxBody bounds each message type's body. The handshake and control
// messages are small and fixed, so a peer that has not joined cannot make
// the coordinator allocate more than a few bytes.
var maxBody = [...]int{
	msgHello:     2 * binary.MaxVarintLen64,
	msgHelloAck:  binary.MaxVarintLen64 + maxErrorField,
	msgBroadcast: maxFrameLen,
	msgAck:       maxFrameLen,
	msgDone:      binary.MaxVarintLen64 + maxErrorField,
	msgPong:      binary.MaxVarintLen64,
}

var msgNames = [...]string{
	msgHello: "hello", msgHelloAck: "hello-ack", msgBroadcast: "broadcast",
	msgAck: "ack", msgDone: "done", msgPong: "pong",
}

func (t msgType) String() string {
	if t >= msgHello && t <= msgPong {
		return msgNames[t]
	}
	return fmt.Sprintf("type-%d", uint8(t))
}

// poisonReused, set by tests through export_test.go, makes every reused
// buffer be overwritten with 0xFF bytes the moment its contents stop being
// valid: a connection's read buffer when the next frame is read, an
// Executor's upload buffer once the ack holding it is sent, a Pipeline's
// decode buffer once the result decoded into it is released. A retained
// alias then reads 0xFF bytes — NaN, as float64 — instead of the values it
// expected.
var poisonReused atomic.Bool

func poison(b []byte) {
	if poisonReused.Load() {
		for i := range b {
			b[i] = 0xFF
		}
	}
}

// poisonDecoded poisons the tensors of a released upload dict that are not
// its base's: those its decode buffer owns, which the next decode
// overwrites.
func poisonDecoded(dict, base map[string]*tensor.Tensor) {
	if !poisonReused.Load() {
		return
	}
	//fedvet:ignore maporder every tensor gets the same fill, in any order
	for k, t := range dict {
		if t != base[k] {
			t.Fill(math.Float64frombits(^uint64(0)))
		}
	}
}

// frameWriter writes frames onto one connection. The header and the small
// fields are staged in buf, reused across frames; byte fields of spliceMin
// bytes or more are spliced in — written from the caller's slice — so the
// frame goes out as one gathered write. mu keeps each frame one
// uninterrupted run of bytes on the stream.
type frameWriter struct {
	mu      sync.Mutex
	w       io.Writer
	buf     []byte
	splices []splice
	// vec gathers the frame's pieces; out is vec as WriteTo consumes it.
	vec, out net.Buffers
	err      error
}

// splice is a byte field written after buf[:at].
type splice struct {
	at int
	b  []byte
}

func (fw *frameWriter) fail(format string, args ...any) {
	if fw.err == nil {
		fw.err = fmt.Errorf("transport: "+format, args...)
	}
}

func (fw *frameWriter) u8(v byte)        { fw.buf = append(fw.buf, v) }
func (fw *frameWriter) uvarint(v uint64) { fw.buf = binary.AppendUvarint(fw.buf, v) }
func (fw *frameWriter) varint(v int64)   { fw.buf = binary.AppendVarint(fw.buf, v) }
func (fw *frameWriter) f64(v float64) {
	fw.buf = binary.LittleEndian.AppendUint64(fw.buf, math.Float64bits(v))
}

func (fw *frameWriter) flag(v bool) {
	if v {
		fw.u8(1)
	} else {
		fw.u8(0)
	}
}

func (fw *frameWriter) str(s string, max int) {
	if len(s) > max {
		fw.fail("string of %d bytes exceeds %d", len(s), max)
		return
	}
	fw.uvarint(uint64(len(s)))
	fw.buf = append(fw.buf, s...)
}

func (fw *frameWriter) bytes(b []byte) {
	if len(b) > maxFrameLen {
		fw.fail("byte field of %d bytes exceeds %d", len(b), maxFrameLen)
		return
	}
	fw.uvarint(uint64(len(b)))
	if len(b) < spliceMin {
		fw.buf = append(fw.buf, b...)
		return
	}
	fw.splices = append(fw.splices, splice{at: len(fw.buf), b: b})
}

func (fw *frameWriter) count(n, max int) {
	if n > max {
		fw.fail("%d entries exceed %d", n, max)
		return
	}
	fw.uvarint(uint64(n))
}

// begin starts a frame; the caller holds mu.
func (fw *frameWriter) begin() {
	fw.buf = append(fw.buf[:0], make([]byte, frameHeaderLen)...)
	fw.err = nil
}

// finish fills in the header of the staged frame and writes it. sent, when
// non-nil, counts the frame's bytes before the first of them is written.
// The caller holds mu.
func (fw *frameWriter) finish(t msgType, version int, sent *atomic.Int64) error {
	defer func() {
		clear(fw.splices)
		fw.splices = fw.splices[:0]
	}()
	if fw.err != nil {
		return fw.err
	}
	if version < 0 || version > math.MaxUint16 {
		return fmt.Errorf("transport: protocol version %d does not fit the header", version)
	}
	n := len(fw.buf) - frameHeaderLen
	for _, s := range fw.splices {
		n += len(s.b)
	}
	if n > maxBody[t] {
		return fmt.Errorf("transport: %v body of %d bytes exceeds %d", t, n, maxBody[t])
	}
	h := fw.buf[:frameHeaderLen]
	copy(h, frameMagic[:])
	binary.LittleEndian.PutUint16(h[4:], uint16(version))
	h[6], h[7] = byte(t), 0
	binary.LittleEndian.PutUint32(h[8:], uint32(n))
	if sent != nil {
		sent.Add(int64(frameHeaderLen + n))
	}
	if len(fw.splices) == 0 {
		_, err := fw.w.Write(fw.buf)
		return err
	}
	fw.vec = fw.vec[:0]
	prev := 0
	for _, s := range fw.splices {
		fw.vec = append(fw.vec, fw.buf[prev:s.at], s.b)
		prev = s.at
	}
	fw.vec = append(fw.vec, fw.buf[prev:])
	fw.out = fw.vec
	_, err := fw.out.WriteTo(fw.w)
	return err
}

// writeHello lays a Hello out as WorkerID, Heartbeat (nanoseconds).
func (fw *frameWriter) writeHello(h Hello) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.begin()
	fw.varint(int64(h.WorkerID))
	fw.varint(int64(h.Heartbeat))
	return fw.finish(msgHello, h.Version, nil)
}

// writeHelloAck lays a HelloAck out as Slot, Error.
func (fw *frameWriter) writeHelloAck(a HelloAck) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.begin()
	fw.varint(int64(a.Slot))
	fw.str(a.Error, maxErrorLen)
	return fw.finish(msgHelloAck, a.Version, nil)
}

// writeBroadcast lays a Broadcast out as Task, Round, Done, Codec; the
// Frame's Kind, BaseVersion, Version, Patch, PayloadVersion, HasPayload and
// Payload; then the job count and each JobSpec. sent counts the frame (see
// finish).
func (fw *frameWriter) writeBroadcast(b *Broadcast, sent *atomic.Int64) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.begin()
	fw.varint(int64(b.Task))
	fw.varint(int64(b.Round))
	fw.flag(b.Done)
	fw.str(b.Codec, maxNameLen)
	f := &b.Frame
	fw.u8(byte(f.Kind))
	fw.uvarint(f.BaseVersion)
	fw.uvarint(f.Version)
	fw.patch(&f.Patch)
	fw.uvarint(f.PayloadVersion)
	fw.flag(f.HasPayload)
	fw.bytes(f.Payload)
	fw.count(len(b.Jobs), maxJobs)
	for i := range b.Jobs {
		fw.job(&b.Jobs[i])
	}
	return fw.finish(msgBroadcast, b.Version, sent)
}

// patch lays a wire.Patch out as Full, Dense, Packed. The reserved Sparse
// field has no wire form.
func (fw *frameWriter) patch(p *wire.Patch) {
	if len(p.Sparse) > 0 {
		fw.fail("a patch with %d sparse entries has no wire form", len(p.Sparse))
	}
	fw.flag(p.Full)
	fw.bytes(p.Dense)
	fw.bytes(p.Packed)
}

// job lays a JobSpec out as ClientID, Task, ClientTask, Group, Round,
// Epochs, BatchSize, LR, RngSeed, then the shard count and each ShardSpec:
// Dataset, Image, Classes, Domain, Task, TrainPerDomain, TestPerDomain,
// GenSeed, Learners, Index, Alpha, PartSeed.
func (fw *frameWriter) job(j *fl.JobSpec) {
	fw.varint(int64(j.ClientID))
	fw.varint(int64(j.Task))
	fw.varint(int64(j.ClientTask))
	fw.varint(int64(j.Group))
	fw.varint(int64(j.Round))
	fw.varint(int64(j.Epochs))
	fw.varint(int64(j.BatchSize))
	fw.f64(j.LR)
	fw.varint(j.RngSeed)
	fw.count(len(j.Shards), maxShards)
	for i := range j.Shards {
		s := &j.Shards[i]
		fw.str(s.Dataset, maxNameLen)
		fw.varint(int64(s.Image))
		fw.varint(int64(s.Classes))
		fw.str(s.Domain, maxNameLen)
		fw.varint(int64(s.Task))
		fw.varint(int64(s.TrainPerDomain))
		fw.varint(int64(s.TestPerDomain))
		fw.varint(s.GenSeed)
		fw.varint(int64(s.Learners))
		fw.varint(int64(s.Index))
		fw.f64(s.Alpha)
		fw.varint(s.PartSeed)
	}
}

// writeUpdate sends an Update as the one message it is. Every form starts
// with WorkerID; an ack continues with Index, a flag saying whether a Patch
// follows, the Patch, and Upload; a done frame with Error; a pong ends there.
func (fw *frameWriter) writeUpdate(u *Update) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.begin()
	fw.varint(int64(u.WorkerID))
	var t msgType
	switch {
	case u.Pong && !u.Done && len(u.Results) == 0 && u.Error == "":
		t = msgPong
	case u.Done && !u.Pong && len(u.Results) == 0:
		t = msgDone
		fw.str(u.Error, maxErrorLen)
	case !u.Done && !u.Pong && len(u.Results) == 1 && u.Error == "":
		t = msgAck
		jr := &u.Results[0]
		fw.varint(int64(jr.Index))
		fw.flag(jr.Patch != nil)
		if jr.Patch != nil {
			fw.patch(jr.Patch)
		}
		fw.bytes(jr.Upload)
	default:
		return fmt.Errorf("transport: an update is one ack, one done frame or one pong (done %v, pong %v, %d results)", u.Done, u.Pong, len(u.Results))
	}
	return fw.finish(t, u.Version, nil)
}

// frameReader reads frames from one connection into a body buffer it keeps
// across frames.
type frameReader struct {
	r   io.Reader
	hdr [frameHeaderLen]byte
	buf []byte
}

// next reads one frame and returns its type, the version its sender
// stamped and its body, which aliases the reader's buffer until the next
// call. A frame of another protocol version comes back with a nil body and
// the stream left mid-frame: the caller reports the mismatch and stops.
// Everything else is validated before the body is read — magic, reserved
// byte, type, and the length against the type's bound — and the buffer
// grows only as bytes arrive, at most frameChunk ahead of them.
func (fr *frameReader) next() (t msgType, version int, body []byte, err error) {
	poison(fr.buf[:cap(fr.buf)])
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	h := fr.hdr[:]
	if [4]byte(h) != frameMagic {
		return 0, 0, nil, fmt.Errorf("transport: bad frame magic %q", h[:4])
	}
	version = int(binary.LittleEndian.Uint16(h[4:]))
	t = msgType(h[6])
	if version != ProtocolVersion {
		return t, version, nil, nil
	}
	if h[7] != 0 {
		return 0, 0, nil, fmt.Errorf("transport: reserved header byte is %d", h[7])
	}
	if t < msgHello || t > msgPong {
		return 0, 0, nil, fmt.Errorf("transport: unknown message type %d", uint8(t))
	}
	n := int(binary.LittleEndian.Uint32(h[8:]))
	if n > maxBody[t] {
		return 0, 0, nil, fmt.Errorf("transport: %v body of %d bytes exceeds %d", t, n, maxBody[t])
	}
	b := fr.buf[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			grown := make([]byte, len(b), min(n, len(b)+frameChunk))
			copy(grown, b)
			b = grown
		}
		k, err := io.ReadFull(fr.r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+k]
		if err != nil {
			fr.buf = b
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, nil, fmt.Errorf("transport: %v body truncated at %d of %d bytes: %w", t, len(b), n, err)
		}
	}
	fr.buf = b
	return t, version, b, nil
}

// readHello reads the handshake's first frame. A Hello of another version
// comes back carrying only that Version (see next).
func (fr *frameReader) readHello() (Hello, error) {
	t, v, body, err := fr.next()
	if err != nil || v != ProtocolVersion {
		return Hello{Version: v}, err
	}
	if t != msgHello {
		return Hello{}, fmt.Errorf("transport: expected a hello, got a %v frame", t)
	}
	return decodeHello(body)
}

// readHelloAck reads the coordinator's handshake reply.
func (fr *frameReader) readHelloAck() (HelloAck, error) {
	t, v, body, err := fr.next()
	if err != nil || v != ProtocolVersion {
		return HelloAck{Version: v}, err
	}
	if t != msgHelloAck {
		return HelloAck{}, fmt.Errorf("transport: expected a hello-ack, got a %v frame", t)
	}
	return decodeHelloAck(body)
}

// readBroadcast reads a worker's next round message. Its byte fields alias
// the read buffer until the next read.
func (fr *frameReader) readBroadcast() (Broadcast, error) {
	t, v, body, err := fr.next()
	if err != nil || v != ProtocolVersion {
		return Broadcast{Version: v}, err
	}
	if t != msgBroadcast {
		return Broadcast{}, fmt.Errorf("transport: expected a broadcast, got a %v frame", t)
	}
	return decodeBroadcast(body)
}

// readUpdate reads the coordinator's next message from a worker and returns
// it with the frame's size. Its byte fields alias the read buffer until the
// next read.
func (fr *frameReader) readUpdate() (Update, int, error) {
	t, v, body, err := fr.next()
	if err != nil || v != ProtocolVersion {
		return Update{Version: v}, frameHeaderLen, err
	}
	u, err := decodeUpdate(t, body)
	return u, frameHeaderLen + len(body), err
}

// frameDecoder reads a body's fields in order. The first failure sticks:
// later reads return zero values, and end reports it.
type frameDecoder struct {
	b   []byte
	err error
}

func (d *frameDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *frameDecoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("field of %d bytes with %d left in the body", n, len(d.b))
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *frameDecoder) u8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

// uvarint reads a varint, rejecting one longer than its value needs: every
// value has exactly one encoding.
func (d *frameDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.fail("body ends inside a varint")
	case n < 0:
		d.fail("varint overflows 64 bits")
	case n > 1 && d.b[n-1] == 0:
		d.fail("varint is not minimally encoded")
	default:
		d.b = d.b[n:]
		return v
	}
	return 0
}

// varint reads a zigzag-encoded signed varint (binary.AppendVarint).
func (d *frameDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *frameDecoder) f64() float64 {
	if b := d.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (d *frameDecoder) flag() bool {
	v := d.u8()
	if v > 1 {
		d.fail("flag byte %d", v)
	}
	return v == 1
}

func (d *frameDecoder) str(max int) string {
	n := d.uvarint()
	if n > uint64(max) {
		d.fail("string of %d bytes exceeds %d", n, max)
		return ""
	}
	return string(d.take(n))
}

// bytes returns a byte field aliasing the body; an empty field is nil.
func (d *frameDecoder) bytes() []byte {
	n := d.uvarint()
	if n == 0 {
		return nil
	}
	return d.take(n)
}

// count reads an entry count, rejecting one above max or one the rest of
// the body cannot hold at minLen bytes an entry.
func (d *frameDecoder) count(max, minLen int) int {
	n := d.uvarint()
	if n > uint64(max) || n*uint64(minLen) > uint64(len(d.b)) {
		d.fail("count %d exceeds its bound", n)
		return 0
	}
	return int(n)
}

func (d *frameDecoder) patch(p *wire.Patch) {
	p.Full = d.flag()
	p.Dense = d.bytes()
	p.Packed = d.bytes()
}

func (d *frameDecoder) job(j *fl.JobSpec) {
	j.ClientID = int(d.varint())
	j.Task = int(d.varint())
	j.ClientTask = int(d.varint())
	j.Group = fl.Group(d.varint())
	j.Round = int(d.varint())
	j.Epochs = int(d.varint())
	j.BatchSize = int(d.varint())
	j.LR = d.f64()
	j.RngSeed = d.varint()
	if n := d.count(maxShards, minShardLen); n > 0 {
		j.Shards = make([]fl.ShardSpec, n)
	}
	for i := range j.Shards {
		s := &j.Shards[i]
		s.Dataset = d.str(maxNameLen)
		s.Image = int(d.varint())
		s.Classes = int(d.varint())
		s.Domain = d.str(maxNameLen)
		s.Task = int(d.varint())
		s.TrainPerDomain = int(d.varint())
		s.TestPerDomain = int(d.varint())
		s.GenSeed = d.varint()
		s.Learners = int(d.varint())
		s.Index = int(d.varint())
		s.Alpha = d.f64()
		s.PartSeed = d.varint()
	}
}

// end reports the first failure, or bytes left after the last field.
func (d *frameDecoder) end(t msgType) error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d bytes after the last field", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("transport: %v frame: %w", t, d.err)
	}
	return nil
}

func decodeHello(body []byte) (Hello, error) {
	d := frameDecoder{b: body}
	h := Hello{Version: ProtocolVersion, WorkerID: int(d.varint())}
	h.Heartbeat = time.Duration(d.varint())
	return h, d.end(msgHello)
}

func decodeHelloAck(body []byte) (HelloAck, error) {
	d := frameDecoder{b: body}
	a := HelloAck{Version: ProtocolVersion, Slot: int(d.varint())}
	a.Error = d.str(maxErrorLen)
	return a, d.end(msgHelloAck)
}

func decodeBroadcast(body []byte) (Broadcast, error) {
	d := frameDecoder{b: body}
	b := Broadcast{Version: ProtocolVersion}
	b.Task = int(d.varint())
	b.Round = int(d.varint())
	b.Done = d.flag()
	b.Codec = d.str(maxNameLen)
	f := &b.Frame
	if f.Kind = wire.Kind(d.u8()); f.Kind > wire.KindDelta {
		d.fail("unknown frame kind %d", f.Kind)
	}
	f.BaseVersion = d.uvarint()
	f.Version = d.uvarint()
	d.patch(&f.Patch)
	f.PayloadVersion = d.uvarint()
	f.HasPayload = d.flag()
	f.Payload = d.bytes()
	if n := d.count(maxJobs, minJobLen); n > 0 {
		b.Jobs = make([]fl.JobSpec, n)
	}
	for i := range b.Jobs {
		d.job(&b.Jobs[i])
	}
	return b, d.end(msgBroadcast)
}

func decodeUpdate(t msgType, body []byte) (Update, error) {
	if t != msgAck && t != msgDone && t != msgPong {
		return Update{}, fmt.Errorf("transport: expected an update, got a %v frame", t)
	}
	d := frameDecoder{b: body}
	u := Update{Version: ProtocolVersion, WorkerID: int(d.varint())}
	switch t {
	case msgAck:
		jr := JobResult{Index: int(d.varint())}
		if d.flag() {
			jr.Patch = new(wire.Patch)
			d.patch(jr.Patch)
		}
		jr.Upload = d.bytes()
		u.Results = []JobResult{jr}
	case msgDone:
		u.Done = true
		u.Error = d.str(maxErrorLen)
	case msgPong:
		u.Pong = true
	}
	return u, d.end(t)
}
