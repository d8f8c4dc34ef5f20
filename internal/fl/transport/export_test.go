package transport

import (
	"io"

	"reffil/internal/fl/internal/poison"
)

// PoisonReusedBuffers turns the runtime's buffer poisoning on (see package
// poison) until the returned function is called: every connection
// overwrites its read buffer with 0xFF once the message in it is consumed
// (when the next frame is read), every Executor its upload buffer once the
// ack holding it is sent, every Pipeline's encoder the bytes of a round's
// broadcast patches at the next round's SetRound, every Pipeline fills a
// decode buffer's tensors with NaN bits once the result decoded into it is
// released, every engine's Accumulator its kept sums at Reset, and every
// LocalRunner a released replica's tensors. A message field, broadcast
// patch, upload patch, result dict or aggregate kept past its lifetime
// then reads 0xFF or NaN instead of silently reusing storage.
func PoisonReusedBuffers() (restore func()) {
	return poison.Enable()
}

// WriteHello writes h onto w as one frame, and ReadHelloAck reads the reply:
// the join handshake as a raw endpoint runs it.
func WriteHello(w io.Writer, h Hello) error {
	fw := frameWriter{w: w}
	return fw.writeHello(h)
}

func ReadHelloAck(r io.Reader) (HelloAck, error) {
	fr := frameReader{r: r}
	return fr.readHelloAck()
}

// WriteUpdate writes u onto w as one frame: a raw endpoint's update.
func WriteUpdate(w io.Writer, u Update) error {
	fw := frameWriter{w: w}
	return fw.writeUpdate(&u)
}

// SumRounds adds up round records field by field, as the Stats of a run
// made of exactly those rounds must read.
func SumRounds(rounds []RoundStats) Stats {
	var s Stats
	for _, rs := range rounds {
		s.Rounds++
		s.BroadcastBytes += rs.BroadcastBytes
		s.UploadBytes += rs.UploadBytes
		s.FullFrames += rs.FullFrames
		s.DeltaFrames += rs.DeltaFrames
		s.IdleFrames += rs.IdleFrames
		s.Fallbacks += rs.FullFrames
		s.PatchUploads += rs.PatchUploads
		s.UploadFallbacks += rs.UploadFallbacks
	}
	return s
}

// HoldDecodes makes every slot reader call hold with the ack's job
// index inside its decode of the ack — the pipeline's lock released, before
// the patch decodes — until the returned function is called.
func HoldDecodes(hold func(index int)) (restore func()) {
	holdDecode.Store(&hold)
	return func() { holdDecode.Store(nil) }
}

// Sever closes the coordinator's end of slot's connection without marking
// the slot dead, so the next send to it fails as a broken connection's does.
func (c *Coordinator) Sever(slot int) {
	if w, err := c.slot(slot); err == nil {
		_ = w.conn.Close()
	}
}
