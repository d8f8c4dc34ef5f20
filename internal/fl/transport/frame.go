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

	"reffil/internal/binfmt"
	"reffil/internal/fl"
	"reffil/internal/fl/internal/poison"
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
// A body is binfmt fields — the codec packed-delta headers and run
// snapshots share: an integer is a minimal varint (zigzag for signed ones),
// a float64 its 8 IEEE bits little endian, a bool one byte 0 or 1, and a
// string or byte slice a varint length followed by its bytes. Each message's
// write method lists its fields in wire order. Magic and version lead every
// revision of the header, so a reader that finds another version reads no
// further: it reports the mismatch instead of guessing at the body.
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
	maxNameLen  = 4096    // dataset and domain names
	maxErrorLen = 1 << 16 // a worker's error report
	maxJobs     = 1 << 16 // JobSpecs in one broadcast
	maxShards   = 64      // ShardSpecs in one JobSpec
	// minJobLen and minShardLen are the shortest encodings of a job entry
	// (its index and JobSpec) and a ShardSpec (one-byte varints, 8-byte
	// floats): a count the rest of the body cannot hold is rejected.
	minJobLen   = 10 + 8
	minShardLen = 11 + 8
	// maxErrorField is the longest encoding of an error string.
	maxErrorField = 3 + maxErrorLen
)

// msgType is a frame's message type. An Update travels as exactly one of
// msgAck, msgFail and msgPong.
type msgType uint8

const (
	msgHello msgType = iota + 1
	msgHelloAck
	msgBroadcast
	msgAck  // one JobResult
	msgFail // a worker-side failure: the handler's error or a version mismatch
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
	msgFail:      binary.MaxVarintLen64 + maxErrorField,
	msgPong:      binary.MaxVarintLen64,
}

var msgNames = [...]string{
	msgHello: "hello", msgHelloAck: "hello-ack", msgBroadcast: "broadcast",
	msgAck: "ack", msgFail: "fail", msgPong: "pong",
}

func (t msgType) String() string {
	if t >= msgHello && t <= msgPong {
		return msgNames[t]
	}
	return fmt.Sprintf("type-%d", uint8(t))
}

// poisonDecoded poisons (see package poison) the tensors of a released
// upload dict that are not its base's: those its decode buffer owns, which
// the next decode overwrites.
func poisonDecoded(dict, base map[string]*tensor.Tensor) {
	if !poison.On() {
		return
	}
	//fedvet:ignore maporder every tensor gets the same fill, in any order
	for k, t := range dict {
		if t != base[k] {
			poison.Tensor(t)
		}
	}
}

// frameWriter writes frames onto one connection. The header and the small
// fields are staged in the embedded Writer's Buf, reused across frames; byte
// fields of spliceMin bytes or more are spliced in — written from the
// caller's slice — so the frame goes out as one gathered write. mu keeps
// each frame one uninterrupted run of bytes on the stream.
type frameWriter struct {
	mu sync.Mutex
	w  io.Writer
	binfmt.Writer
	splices []splice
	// vec gathers the frame's pieces; out is vec as WriteTo consumes it.
	vec, out net.Buffers
}

// splice is a byte field written after Buf[:at].
type splice struct {
	at int
	b  []byte
}

// bytes writes a byte field, splicing it in from b when it is long. Bytes
// refuses one past maxFrameLen.
func (fw *frameWriter) bytes(b []byte) {
	if len(b) < spliceMin || len(b) > maxFrameLen {
		fw.Bytes(b, maxFrameLen)
		return
	}
	fw.Uvarint(uint64(len(b)))
	fw.splices = append(fw.splices, splice{at: len(fw.Buf), b: b})
}

// begin starts a frame; the caller holds mu.
func (fw *frameWriter) begin() {
	fw.Reset(append(fw.Buf[:0], make([]byte, frameHeaderLen)...))
}

// finish fills in the header of the staged frame and writes it. sent, when
// non-nil, counts the frame's bytes before the first of them is written.
// The caller holds mu.
func (fw *frameWriter) finish(t msgType, version int, sent *atomic.Int64) error {
	defer func() {
		clear(fw.splices)
		fw.splices = fw.splices[:0]
	}()
	if err := fw.Err(); err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	if version < 0 || version > math.MaxUint16 {
		return fmt.Errorf("transport: protocol version %d does not fit the header", version)
	}
	n := len(fw.Buf) - frameHeaderLen
	for _, s := range fw.splices {
		n += len(s.b)
	}
	if n > maxBody[t] {
		return fmt.Errorf("transport: %v body of %d bytes exceeds %d", t, n, maxBody[t])
	}
	h := fw.Buf[:frameHeaderLen]
	copy(h, frameMagic[:])
	binary.LittleEndian.PutUint16(h[4:], uint16(version))
	h[6], h[7] = byte(t), 0
	binary.LittleEndian.PutUint32(h[8:], uint32(n))
	if sent != nil {
		sent.Add(int64(frameHeaderLen + n))
	}
	if len(fw.splices) == 0 {
		_, err := fw.w.Write(fw.Buf)
		return err
	}
	fw.vec = fw.vec[:0]
	prev := 0
	for _, s := range fw.splices {
		fw.vec = append(fw.vec, fw.Buf[prev:s.at], s.b)
		prev = s.at
	}
	fw.vec = append(fw.vec, fw.Buf[prev:])
	fw.out = fw.vec
	_, err := fw.out.WriteTo(fw.w)
	return err
}

// writeHello lays a Hello out as WorkerID, Heartbeat (nanoseconds).
func (fw *frameWriter) writeHello(h Hello) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.begin()
	fw.Varint(int64(h.WorkerID))
	fw.Varint(int64(h.Heartbeat))
	return fw.finish(msgHello, h.Version, nil)
}

// writeHelloAck lays a HelloAck out as Slot, Error.
func (fw *frameWriter) writeHelloAck(a HelloAck) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.begin()
	fw.Varint(int64(a.Slot))
	fw.String(a.Error, maxErrorLen)
	return fw.finish(msgHelloAck, a.Version, nil)
}

// writeBroadcast lays a Broadcast out as Task, Round, Done; the Frame's Kind,
// BaseVersion, Version, Patch, PayloadVersion, HasPayload and Payload; then
// the job count and each job's Index and JobSpec. sent counts the frame.
func (fw *frameWriter) writeBroadcast(b *Broadcast, sent *atomic.Int64) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.begin()
	fw.Varint(int64(b.Task))
	fw.Varint(int64(b.Round))
	fw.Flag(b.Done)
	f := &b.Frame
	fw.U8(byte(f.Kind))
	fw.Uvarint(f.BaseVersion)
	fw.Uvarint(f.Version)
	fw.patch(&f.Patch)
	fw.Uvarint(f.PayloadVersion)
	fw.Flag(f.HasPayload)
	fw.bytes(f.Payload)
	fw.Count(len(b.Jobs), maxJobs)
	for i := range b.Jobs {
		fw.Varint(int64(b.Jobs[i].Index))
		fw.job(&b.Jobs[i].Spec)
	}
	return fw.finish(msgBroadcast, b.Version, sent)
}

// patch lays a wire.Patch out as Full, Dense, Packed. The reserved Sparse
// field has no wire form.
func (fw *frameWriter) patch(p *wire.Patch) {
	if len(p.Sparse) > 0 {
		fw.Fail("a patch with %d sparse entries has no wire form", len(p.Sparse))
	}
	fw.Flag(p.Full)
	fw.bytes(p.Dense)
	fw.bytes(p.Packed)
}

// job lays a JobSpec out as ClientID, Task, ClientTask, Group, Round,
// Epochs, BatchSize, LR, RngSeed, then the shard count and each ShardSpec:
// Dataset, Image, Classes, Domain, Task, TrainPerDomain, TestPerDomain,
// GenSeed, Learners, Index, Alpha, PartSeed.
func (fw *frameWriter) job(j *fl.JobSpec) {
	fw.Varint(int64(j.ClientID))
	fw.Varint(int64(j.Task))
	fw.Varint(int64(j.ClientTask))
	fw.Varint(int64(j.Group))
	fw.Varint(int64(j.Round))
	fw.Varint(int64(j.Epochs))
	fw.Varint(int64(j.BatchSize))
	fw.F64(j.LR)
	fw.Varint(j.RngSeed)
	fw.Count(len(j.Shards), maxShards)
	for i := range j.Shards {
		s := &j.Shards[i]
		fw.String(s.Dataset, maxNameLen)
		fw.Varint(int64(s.Image))
		fw.Varint(int64(s.Classes))
		fw.String(s.Domain, maxNameLen)
		fw.Varint(int64(s.Task))
		fw.Varint(int64(s.TrainPerDomain))
		fw.Varint(int64(s.TestPerDomain))
		fw.Varint(s.GenSeed)
		fw.Varint(int64(s.Learners))
		fw.Varint(int64(s.Index))
		fw.F64(s.Alpha)
		fw.Varint(s.PartSeed)
	}
}

// writeUpdate sends an Update as the one message it is. Every form starts
// with WorkerID; an ack continues with Index, a flag saying whether a Patch
// follows, the Patch, and Upload; a fail frame with Error; a pong ends there.
func (fw *frameWriter) writeUpdate(u *Update) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.begin()
	fw.Varint(int64(u.WorkerID))
	var t msgType
	switch {
	case u.Pong && u.Ack == nil && u.Error == "":
		t = msgPong
	case u.Error != "" && !u.Pong && u.Ack == nil:
		t = msgFail
		fw.String(u.Error, maxErrorLen)
	case !u.Pong && u.Ack != nil && u.Error == "":
		t = msgAck
		jr := u.Ack
		fw.Varint(int64(jr.Index))
		fw.Flag(jr.Patch != nil)
		if jr.Patch != nil {
			fw.patch(jr.Patch)
		}
		fw.bytes(jr.Upload)
	default:
		return fmt.Errorf("transport: an update is one ack, one fail frame or one pong (error %v, pong %v, ack %v)", u.Error != "", u.Pong, u.Ack != nil)
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
// grows only as bytes arrive, at most frameChunk ahead of them. Its last
// growth for a frame aims an eighth past the frame's length (within the
// type's bound), so a later frame a few bytes longer — the next upload of
// the same model — fits without another copy of the whole body.
func (fr *frameReader) next() (t msgType, version int, body []byte, err error) {
	poison.Bytes(fr.buf[:cap(fr.buf)])
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
	room := min(n+n/8, maxBody[t])
	for len(b) < n {
		if len(b) == cap(b) {
			grown := make([]byte, len(b), min(room, len(b)+frameChunk))
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

// end reports a body's first failure, or bytes left after its last field.
func end(t msgType, d *binfmt.Reader) error {
	if err := d.End(); err != nil {
		return fmt.Errorf("transport: %v frame: %w", t, err)
	}
	return nil
}

func readPatch(d *binfmt.Reader, p *wire.Patch) {
	p.Full = d.Flag()
	p.Dense = d.Bytes(maxFrameLen)
	p.Packed = d.Bytes(maxFrameLen)
}

func readJob(d *binfmt.Reader, j *fl.JobSpec) {
	j.ClientID = int(d.Varint())
	j.Task = int(d.Varint())
	j.ClientTask = int(d.Varint())
	j.Group = fl.Group(d.Varint())
	j.Round = int(d.Varint())
	j.Epochs = int(d.Varint())
	j.BatchSize = int(d.Varint())
	j.LR = d.F64()
	j.RngSeed = d.Varint()
	if n := d.Count(maxShards, minShardLen); n > 0 {
		j.Shards = make([]fl.ShardSpec, n)
	}
	for i := range j.Shards {
		s := &j.Shards[i]
		s.Dataset = d.String(maxNameLen)
		s.Image = int(d.Varint())
		s.Classes = int(d.Varint())
		s.Domain = d.String(maxNameLen)
		s.Task = int(d.Varint())
		s.TrainPerDomain = int(d.Varint())
		s.TestPerDomain = int(d.Varint())
		s.GenSeed = d.Varint()
		s.Learners = int(d.Varint())
		s.Index = int(d.Varint())
		s.Alpha = d.F64()
		s.PartSeed = d.Varint()
	}
}

func decodeHello(body []byte) (Hello, error) {
	d := binfmt.NewReader(body)
	h := Hello{Version: ProtocolVersion, WorkerID: int(d.Varint())}
	h.Heartbeat = time.Duration(d.Varint())
	return h, end(msgHello, &d)
}

func decodeHelloAck(body []byte) (HelloAck, error) {
	d := binfmt.NewReader(body)
	a := HelloAck{Version: ProtocolVersion, Slot: int(d.Varint())}
	a.Error = d.String(maxErrorLen)
	return a, end(msgHelloAck, &d)
}

func decodeBroadcast(body []byte) (Broadcast, error) {
	d := binfmt.NewReader(body)
	b := Broadcast{Version: ProtocolVersion}
	b.Task = int(d.Varint())
	b.Round = int(d.Varint())
	b.Done = d.Flag()
	f := &b.Frame
	if f.Kind = wire.Kind(d.U8()); f.Kind > wire.KindDelta {
		d.Fail("unknown frame kind %d", f.Kind)
	}
	f.BaseVersion = d.Uvarint()
	f.Version = d.Uvarint()
	readPatch(&d, &f.Patch)
	f.PayloadVersion = d.Uvarint()
	f.HasPayload = d.Flag()
	f.Payload = d.Bytes(maxFrameLen)
	if n := d.Count(maxJobs, minJobLen); n > 0 {
		b.Jobs = make([]Job, n)
	}
	for i := range b.Jobs {
		b.Jobs[i].Index = int(d.Varint())
		readJob(&d, &b.Jobs[i].Spec)
	}
	return b, end(msgBroadcast, &d)
}

func decodeUpdate(t msgType, body []byte) (Update, error) {
	if t != msgAck && t != msgFail && t != msgPong {
		return Update{}, fmt.Errorf("transport: expected an update, got a %v frame", t)
	}
	d := binfmt.NewReader(body)
	u := Update{Version: ProtocolVersion, WorkerID: int(d.Varint())}
	switch t {
	case msgAck:
		u.Ack = &JobResult{Index: int(d.Varint())}
		if d.Flag() {
			u.Ack.Patch = new(wire.Patch)
			readPatch(&d, u.Ack.Patch)
		}
		u.Ack.Upload = d.Bytes(maxFrameLen)
	case msgFail:
		if u.Error = d.String(maxErrorLen); u.Error == "" {
			d.Fail("a fail frame carries no error")
		}
	case msgPong:
		u.Pong = true
	}
	return u, end(t, &d)
}
