package transport

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"reffil/internal/fl"
	"reffil/internal/fl/wire"
)

// goldenVersion is the protocol revision goldenMessages pins.
const goldenVersion = 13

// goldenMessage is one small message of each type and the frame it must
// encode to, byte for byte, under goldenVersion.
type goldenMessage struct {
	name  string
	write func(fw *frameWriter) error
	hex   string
}

func goldenMessages() []goldenMessage {
	b := Broadcast{
		Version: ProtocolVersion, Task: 1, Round: 2,
		Frame: wire.Frame{
			Kind: wire.KindDelta, BaseVersion: 3, Version: 4,
			Patch:          wire.Patch{Packed: []byte{0xaa, 0xbb}},
			PayloadVersion: 5, HasPayload: true, Payload: []byte{9},
		},
		Jobs: []Job{{Index: 2, Spec: fl.JobSpec{
			ClientID: 7, Task: 1, ClientTask: 1, Group: fl.GroupInBetween, Round: 2,
			Epochs: 1, BatchSize: 8, LR: 0.5, RngSeed: -1,
			Shards: []fl.ShardSpec{{
				Dataset: "pacs", Image: 16, Classes: 7, Domain: "photo", Task: 1,
				TrainPerDomain: 24, TestPerDomain: 12, GenSeed: 1001,
				Learners: 4, Index: 2, Alpha: 0.5, PartSeed: -2,
			}},
		}}},
	}
	ack := Update{Version: ProtocolVersion, WorkerID: 1, Ack: &JobResult{
		Index: 0, Patch: &wire.Patch{Packed: []byte{1, 2, 3}}, Upload: []byte{4},
	}}
	return []goldenMessage{
		{"hello", func(fw *frameWriter) error {
			return fw.writeHello(Hello{Version: ProtocolVersion, WorkerID: 3, Heartbeat: 250 * time.Millisecond})
		}, "52464c570d000100" + "06000000" + "06" + "80cab5ee01"},
		{"hello-ack", func(fw *frameWriter) error {
			return fw.writeHelloAck(HelloAck{Version: ProtocolVersion, Slot: 2, Error: "no"})
		}, "52464c570d000200" + "04000000" + "04" + "026e6f"},
		{"broadcast", func(fw *frameWriter) error { return fw.writeBroadcast(&b, nil) },
			"52464c570d000300" + "3f000000" +
				"02" + "04" + "00" + // Task, Round, Done
				"02" + "03" + "04" + // Kind, BaseVersion, Version
				"00" + "00" + "02aabb" + // Patch: Full, Dense, Packed
				"05" + "01" + "0109" + // PayloadVersion, HasPayload, Payload
				"01" + "04" + // one job, Index 2: ClientID … BatchSize, LR, RngSeed, one shard
				"0e" + "02" + "02" + "04" + "04" + "02" + "10" + "000000000000e03f" + "01" + "01" +
				"0470616373" + "20" + "0e" + "0570686f746f" + "02" + "30" + "18" + "d20f" + // Dataset … GenSeed
				"08" + "04" + "000000000000e03f" + "03"}, // Learners, Index, Alpha, PartSeed
		{"ack", func(fw *frameWriter) error { return fw.writeUpdate(&ack) },
			"52464c570d000400" + "0b000000" + "02" + "00" + "01" +
				"00" + "00" + "03010203" + "0104"},
		{"fail", func(fw *frameWriter) error {
			return fw.writeUpdate(&Update{Version: ProtocolVersion, WorkerID: 1, Error: "boom"})
		}, "52464c570d000500" + "06000000" + "02" + "04626f6f6d"},
		{"pong", func(fw *frameWriter) error {
			return fw.writeUpdate(&Update{Version: ProtocolVersion, WorkerID: 1, Pong: true})
		}, "52464c570d000600" + "01000000" + "02"},
	}
}

// TestFrameMatchesGoldenBytes pins the frame layout of protocol
// goldenVersion, one message of each type. A failure here means the bytes
// on the wire changed: bump ProtocolVersion and re-pin the frames under the
// new version — never edit them in place, or a peer of the old revision
// would mis-read the new one without a version mismatch to stop it.
func TestFrameMatchesGoldenBytes(t *testing.T) {
	if ProtocolVersion != goldenVersion {
		t.Fatalf("ProtocolVersion is %d but the golden frames pin v%d: re-pin them", ProtocolVersion, goldenVersion)
	}
	for _, g := range goldenMessages() {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.write(&frameWriter{w: &buf}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s frame is\n%x\nwant\n%x", g.name, buf.Bytes(), want)
		}
	}
}

// TestFrameRoundTripAllocs pins the point of the frame: once a
// connection's buffers are warm, sending an ack that carries a 1 MB packed
// patch allocates under 4 KB — the patch goes to the socket from the slice
// that holds it — and receiving one allocates under an eighth of the patch:
// the body lands in the reader's buffer and the patch aliases it.
func TestFrameRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are calibrated for uninstrumented builds")
	}
	const (
		patchLen = 1 << 20
		warm     = 2
		runs     = 16
	)
	packed := make([]byte, patchLen)
	rand.New(rand.NewSource(1)).Read(packed)
	u := Update{Version: ProtocolVersion, WorkerID: 1, Ack: &JobResult{
		Patch: &wire.Patch{Packed: packed}, Upload: make([]byte, 1024),
	}}
	var frame bytes.Buffer
	if err := (&frameWriter{w: &frame}).writeUpdate(&u); err != nil {
		t.Fatal(err)
	}

	// bytesPerRun measures op over runs calls after warm ones, while the
	// other end of a loopback connection is served by peer.
	bytesPerRun := func(op func(net.Conn) error, peer func(net.Conn)) uint64 {
		t.Helper()
		a, b := loopbackPair(t)
		defer a.Close()
		defer b.Close()
		go peer(b)
		for i := 0; i < warm; i++ {
			if err := op(a); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := op(a); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}

	var fw *frameWriter
	// The peer's read buffer is allocated here, not in its goroutine: a
	// goroutine scheduled late would allocate it inside the measured window.
	buf := make([]byte, 64<<10)
	sent := bytesPerRun(func(c net.Conn) error {
		if fw == nil {
			fw = &frameWriter{w: c}
		}
		return fw.writeUpdate(&u)
	}, func(c net.Conn) {
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	})
	if sent >= 4<<10 {
		t.Errorf("sending a %d-byte patch allocated %d bytes per frame, want < 4 KB", patchLen, sent)
	}

	var fr *frameReader
	received := bytesPerRun(func(c net.Conn) error {
		if fr == nil {
			fr = &frameReader{r: c}
		}
		got, _, err := fr.readUpdate()
		if err == nil && !bytes.Equal(got.Ack.Patch.Packed, packed) {
			t.Fatal("received patch differs from the one sent")
		}
		return err
	}, func(c net.Conn) {
		for i := 0; i < warm+runs; i++ {
			if _, err := c.Write(frame.Bytes()); err != nil {
				return
			}
		}
	})
	if received >= patchLen/8 {
		t.Errorf("receiving a %d-byte patch allocated %d bytes per frame, want < %d", patchLen, received, patchLen/8)
	}
	t.Logf("per frame carrying a %d-byte patch: %d B allocated to send, %d B to receive", patchLen, sent, received)
}

// loopbackPair returns the two ends of one loopback TCP connection.
func loopbackPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}
