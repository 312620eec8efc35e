package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"narada/internal/simnet"
)

func newSimPair(t *testing.T) (*SimNode, *SimNode) {
	t.Helper()
	n := simnet.NewPaperWAN(simnet.Config{Scale: 500, Seed: 42})
	a := NewSimNode(n, simnet.SiteBloomington, "a", 0)
	b := NewSimNode(n, simnet.SiteFSU, "b", 5*time.Millisecond)
	return a, b
}

func TestParseSimAddr(t *testing.T) {
	a, err := ParseSimAddr("fsu/broker1:42")
	if err != nil {
		t.Fatal(err)
	}
	want := simnet.Addr{Site: "fsu", Host: "broker1", Port: 42}
	if a != want {
		t.Fatalf("got %+v", a)
	}
	if FormatSimAddr(want) != "fsu/broker1:42" {
		t.Fatalf("FormatSimAddr = %q", FormatSimAddr(want))
	}
	for _, bad := range []string{"", "nohost", "fsu/x", "x:1", "fsu/x:notaport"} {
		if _, err := ParseSimAddr(bad); err == nil {
			t.Errorf("ParseSimAddr(%q) accepted", bad)
		}
	}
}

func TestSimPacketRoundTrip(t *testing.T) {
	a, b := newSimPair(t)
	pa, err := a.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.Send(pb.LocalAddr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	payload, from, err := pb.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "hello" || from != pa.LocalAddr() {
		t.Fatalf("got %q from %q", payload, from)
	}
}

func TestSimPacketTimeout(t *testing.T) {
	a, _ := newSimPair(t)
	pa, _ := a.ListenPacket(0)
	if _, _, err := pa.RecvTimeout(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestSimStreamRoundTrip(t *testing.T) {
	a, b := newSimPair(t)
	l, err := b.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		srv, err := l.Accept()
		if err != nil {
			return
		}
		for {
			msg, err := srv.Recv()
			if err != nil {
				return
			}
			if err := srv.Send(append([]byte("echo:"), msg...)); err != nil {
				return
			}
		}
	}()
	c, err := a.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := c.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:ping" {
		t.Fatalf("got %q", got)
	}
	_ = c.Close()
}

func TestSimMulticastViaInterface(t *testing.T) {
	n := simnet.NewPaperWAN(simnet.Config{Scale: 500, Seed: 7})
	client := NewSimNode(n, simnet.SiteBloomington, "cli", 0)
	labBroker := NewSimNode(n, simnet.SiteIndianapolis, "b1", 0)
	farBroker := NewSimNode(n, simnet.SiteCardiff, "b2", 0)

	pc, _ := client.ListenPacket(0)
	pl, _ := labBroker.ListenPacket(0)
	pf, _ := farBroker.ListenPacket(0)
	const group = "narada/discovery"
	_ = pl.JoinGroup(group)
	_ = pf.JoinGroup(group)

	if err := pc.SendGroup(group, []byte("anyone")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pl.RecvTimeout(2 * time.Second); err != nil {
		t.Fatalf("lab broker missed multicast: %v", err)
	}
	if _, _, err := pf.RecvTimeout(200 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("realm scoping failed: %v", err)
	}
}

func TestRealPacketRoundTrip(t *testing.T) {
	node := NewRealNode("127.0.0.1", nil)
	pa, err := node.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	pb, err := node.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	if err := pa.Send(pb.LocalAddr(), []byte("real-udp")); err != nil {
		t.Fatal(err)
	}
	payload, from, err := pb.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "real-udp" || from == "" {
		t.Fatalf("got %q from %q", payload, from)
	}
}

// newRealPacketPair opens two loopback datagram conns closed at test end.
func newRealPacketPair(tb testing.TB) (PacketConn, PacketConn) {
	tb.Helper()
	node := NewRealNode("127.0.0.1", nil)
	pa, err := node.ListenPacket(0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pa.Close() })
	pb, err := node.ListenPacket(0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pb.Close() })
	return pa, pb
}

// filled returns n bytes that vary with both position and seed, so a
// truncated, shifted or overwritten payload never compares equal.
func filled(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31) ^ seed
	}
	return b
}

func TestRealPacketLargeDatagram(t *testing.T) {
	pa, pb := newRealPacketPair(t)
	want := filled(60000, 0x5a)
	if err := pa.Send(pb.LocalAddr(), want); err != nil {
		t.Fatal(err)
	}
	got, from, err := pb.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %d bytes, want the %d sent byte for byte", len(got), len(want))
	}
	if from != pa.LocalAddr() {
		t.Fatalf("from = %q, want %q", from, pa.LocalAddr())
	}
}

func TestRealPacketSendHostname(t *testing.T) {
	pa, pb := newRealPacketPair(t)
	_, port, err := net.SplitHostPort(pb.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.Send(net.JoinHostPort("localhost", port), []byte("by-name")); err != nil {
		t.Skipf("localhost does not resolve to loopback IPv4: %v", err)
	}
	got, from, err := pb.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "by-name" || from != pa.LocalAddr() {
		t.Fatalf("got %q from %q", got, from)
	}
}

func TestRealPacketRecvDoesNotAlias(t *testing.T) {
	pa, pb := newRealPacketPair(t)
	first, second := filled(512, 1), filled(512, 2)
	for _, p := range [][]byte{first, second} {
		if err := pa.Send(pb.LocalAddr(), p); err != nil {
			t.Fatal(err)
		}
	}
	got1, _, err := pb.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := pb.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, first) {
		t.Fatal("first payload changed after the second Recv")
	}
	if !bytes.Equal(got2, second) {
		t.Fatal("second payload corrupted")
	}
	if cap(got1) != len(got1) {
		t.Fatalf("payload cap = %d, want an exact-size copy of %d bytes", cap(got1), len(got1))
	}
}

func TestRealPacketConcurrentRecv(t *testing.T) {
	pa, pb := newRealPacketPair(t)
	for round := 0; round < 50; round++ {
		got := make(chan []byte, 2)
		for g := 0; g < 2; g++ {
			go func() {
				p, _, err := pb.RecvTimeout(2 * time.Second)
				if err != nil {
					t.Error(err)
				}
				got <- p
			}()
		}
		want := [][]byte{filled(1024, byte(2*round)), filled(1024, byte(2*round+1))}
		for _, p := range want {
			if err := pa.Send(pb.LocalAddr(), p); err != nil {
				t.Error(err)
			}
		}
		a, b := <-got, <-got
		if t.Failed() {
			return
		}
		if bytes.Equal(a, want[1]) {
			a, b = b, a
		}
		if !bytes.Equal(a, want[0]) || !bytes.Equal(b, want[1]) {
			t.Fatalf("round %d: concurrent receivers got mixed or corrupted payloads", round)
		}
	}
}

// TestRealPacketRecvHeapGuard pins the pooled receive buffer: a datagram
// round trip allocates its exact-size payload and sender string, never a
// fresh 64 KiB read buffer.
func TestRealPacketRecvHeapGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	pa, pb := newRealPacketPair(t)
	to, msg := pb.LocalAddr(), filled(256, 7)
	roundTrip := func() {
		if err := pa.Send(to, msg); err != nil {
			t.Fatal(err)
		}
		if _, _, err := pb.RecvTimeout(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		roundTrip()
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 4<<10 {
		t.Fatalf("%d B allocated per datagram, want < 4096", per)
	}
}

func BenchmarkRealPacketRoundTrip(b *testing.B) {
	pa, pb := newRealPacketPair(b)
	to, msg := pb.LocalAddr(), filled(256, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pa.Send(to, msg); err != nil {
			b.Fatal(err)
		}
		if _, _, err := pb.RecvTimeout(2 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRealPacketTimeout(t *testing.T) {
	node := NewRealNode("127.0.0.1", nil)
	pc, err := node.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, _, err := pc.RecvTimeout(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestRealStreamRoundTripAndFraming(t *testing.T) {
	node := NewRealNode("127.0.0.1", nil)
	l, err := node.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		srv, err := l.Accept()
		if err != nil {
			return
		}
		defer srv.Close()
		for i := 0; i < 3; i++ {
			msg, err := srv.Recv()
			if err != nil {
				return
			}
			if err := srv.Send(msg); err != nil {
				return
			}
		}
	}()
	c, err := node.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Mixed sizes, including empty, must frame cleanly.
	for _, msg := range [][]byte{[]byte("x"), {}, make([]byte, 100000)} {
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := c.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(msg) {
			t.Fatalf("echo size = %d, want %d", len(got), len(msg))
		}
	}
}

func TestRealStreamClosedPeer(t *testing.T) {
	node := NewRealNode("127.0.0.1", nil)
	l, err := node.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		srv, err := l.Accept()
		if err == nil {
			_ = srv.Close()
		}
	}()
	c, err := node.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RecvTimeout(2 * time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestRealOversizedFrameRejected(t *testing.T) {
	node := NewRealNode("127.0.0.1", nil)
	l, _ := node.Listen(0)
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			defer c.Close()
			_, _ = c.Recv()
		}
	}()
	c, err := node.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// newRealStreamPair connects two framed loopback stream conns, closed at
// test end. Tests reach the raw socket through the conn's c field to cut
// frames at arbitrary bytes.
func newRealStreamPair(tb testing.TB) (*realConn, *realConn) {
	tb.Helper()
	node := NewRealNode("127.0.0.1", nil)
	l, err := node.Listen(0)
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	dialed, err := node.Dial(l.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	accepted, err := l.Accept()
	if err != nil {
		dialed.Close()
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		dialed.Close()
		accepted.Close()
	})
	return dialed.(*realConn), accepted.(*realConn)
}

// framed returns p with its 4-byte length prefix, as it crosses the wire.
func framed(p []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...)
}

// pendingBytes reports how many bytes of a not yet returned frame the conn
// has read off the socket, header included.
func pendingBytes(c *realConn) int {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	n := c.w - c.r
	if c.large != nil {
		n += 4 + c.largeN
	}
	return n
}

// holdsScratch reports whether the conn currently holds pooled read scratch.
func holdsScratch(c *realConn) bool {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	return c.buf != nil
}

// TestRealStreamTimeoutMidFrame cuts a frame inside its header, inside its
// body and inside a body larger than the read scratch: every RecvTimeout
// that expires on the partial frame reports ErrTimeout and keeps the bytes,
// and once the rest arrives the frame and the one after it come out intact.
func TestRealStreamTimeoutMidFrame(t *testing.T) {
	for _, tc := range []struct {
		name      string
		size, cut int
	}{
		{"header", 300, 2},
		{"body", 300, 4 + 150},
		{"beyond-scratch", 100000, 4 + 50000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tx, rx := newRealStreamPair(t)
			want, next := filled(tc.size, 3), filled(17, 4)
			stream := append(framed(want), framed(next)...)
			if _, err := tx.c.Write(stream[:tc.cut]); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for pendingBytes(rx) < tc.cut {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d cut bytes read", pendingBytes(rx), tc.cut)
				}
				if p, err := rx.RecvTimeout(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
					t.Fatalf("partial frame: got %d bytes, err = %v; want ErrTimeout", len(p), err)
				}
			}
			if _, err := tx.c.Write(stream[tc.cut:]); err != nil {
				t.Fatal(err)
			}
			for i, w := range [][]byte{want, next} {
				got, err := rx.RecvTimeout(5 * time.Second)
				if err != nil {
					t.Fatalf("frame %d after resuming: %v", i, err)
				}
				if !bytes.Equal(got, w) {
					t.Fatalf("frame %d after resuming: got %d bytes, want the %d sent", i, len(got), len(w))
				}
			}
			if holdsScratch(rx) {
				t.Fatal("drained conn still holds its read scratch")
			}
		})
	}
}

// TestRealStreamBatchMixedSizes sends 64 frames around every read-scratch
// boundary in one vectored write; each comes back intact, in order and as
// an exact-size copy.
func TestRealStreamBatchMixedSizes(t *testing.T) {
	tx, rx := newRealStreamPair(t)
	sizes := []int{0, 1, 300, streamScratch - 5, streamScratch - 4, streamScratch - 3,
		streamScratch - 1, streamScratch, streamScratch + 1, 100000}
	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = filled(sizes[i%len(sizes)], byte(i))
	}
	sent := make(chan error, 1)
	go func() { sent <- tx.SendBatch(frames) }()
	for i, want := range frames {
		got, err := rx.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) || cap(got) != len(want) {
			t.Fatalf("frame %d: got %d bytes (cap %d), want %d", i, len(got), cap(got), len(want))
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if holdsScratch(rx) {
		t.Fatal("drained conn still holds its read scratch")
	}
}

// TestRealStreamRecvDoesNotAlias overwrites each returned payload while the
// frames after it still sit in the read scratch, then refills the scratch:
// no payload may share memory with another or with the scratch.
func TestRealStreamRecvDoesNotAlias(t *testing.T) {
	tx, rx := newRealStreamPair(t)
	batch := func(seed byte) [][]byte {
		return [][]byte{filled(300, seed), filled(300, seed+1), filled(300, seed+2)}
	}
	var got [][]byte
	for _, frames := range [][][]byte{batch(10), batch(20)} {
		if err := tx.SendBatch(frames); err != nil {
			t.Fatal(err)
		}
		for i, want := range frames {
			p, err := rx.RecvTimeout(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p, want) {
				t.Fatalf("frame %d corrupted by an earlier payload's overwrite", i)
			}
			for j := range p {
				p[j] = 0xEE
			}
			got = append(got, p)
		}
	}
	for i, p := range got {
		if !bytes.Equal(p, bytes.Repeat([]byte{0xEE}, 300)) {
			t.Fatalf("payload %d changed after later reads", i)
		}
	}
}

func TestRealStreamOversizedHeaderRejected(t *testing.T) {
	tx, rx := newRealStreamPair(t)
	if _, err := tx.c.Write(binary.BigEndian.AppendUint32(nil, MaxFrame+1)); err != nil {
		t.Fatal(err)
	}
	_, err := rx.RecvTimeout(5 * time.Second)
	if err == nil || errors.Is(err, ErrTimeout) || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want an oversized-frame error", err)
	}
}

// scratchProbe wraps a realConn's socket and records, at every Read, whether
// the conn held read scratch with no unread bytes in it. Read runs under the
// conn's readMu, so it may inspect the read state.
type scratchProbe struct {
	net.Conn
	owner     *realConn
	reads     int
	emptyHeld int
}

func (p *scratchProbe) Read(b []byte) (int, error) {
	p.reads++
	if p.owner.buf != nil && p.owner.w == p.owner.r {
		p.emptyHeld++
	}
	return p.Conn.Read(b)
}

// TestRealStreamIdleHoldsNoScratch checks that a conn waiting for data holds
// no read scratch: neither after a timeout with nothing buffered, nor while a
// Recv is parked on an idle conn, as every link and session reader is.
func TestRealStreamIdleHoldsNoScratch(t *testing.T) {
	tx, rx := newRealStreamPair(t)
	probe := &scratchProbe{Conn: rx.c, owner: rx}
	rx.c = probe
	if _, err := rx.RecvTimeout(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if holdsScratch(rx) {
		t.Fatal("conn holds read scratch after a timeout with nothing buffered")
	}

	got := make(chan []byte, 1)
	go func() {
		p, err := rx.Recv()
		if err != nil {
			t.Error(err)
		}
		got <- p
	}()
	time.Sleep(20 * time.Millisecond) // let Recv park on the idle socket
	want := [][]byte{filled(300, 1), filled(300, 2)}
	if err := tx.SendBatch(want); err != nil {
		t.Fatal(err)
	}
	if p := <-got; !bytes.Equal(p, want[0]) {
		t.Fatalf("parked Recv got %d bytes, want the first frame", len(p))
	}
	if p, err := rx.RecvTimeout(5 * time.Second); err != nil || !bytes.Equal(p, want[1]) {
		t.Fatalf("second frame: %d bytes, err = %v", len(p), err)
	}
	if probe.reads == 0 || probe.emptyHeld != 0 {
		t.Fatalf("%d of %d socket reads ran holding an empty scratch", probe.emptyHeld, probe.reads)
	}
	if holdsScratch(rx) {
		t.Fatal("drained conn still holds its read scratch")
	}
}

// TestRealStreamConcurrentSenders has goroutines call Send and SendBatch on
// one conn at once; the receiver must only ever see whole frames, each
// sender's in the order it sent them.
func TestRealStreamConcurrentSenders(t *testing.T) {
	tx, rx := newRealStreamPair(t)
	const senders, rounds, perBatch = 6, 40, 4
	// A frame is [sender][seq uint32][body], the body derived from both so
	// a torn or spliced frame never validates.
	frame := func(g, seq int) []byte {
		body := filled((seq*397+g*1009)%(2*streamScratch), byte(g*31+seq))
		return append(binary.BigEndian.AppendUint32([]byte{byte(g)}, uint32(seq)), body...)
	}
	for g := 0; g < senders; g++ {
		go func(g int) {
			seq := 0
			for r := 0; r < rounds; r++ {
				var err error
				if g%2 == 0 {
					err = tx.Send(frame(g, seq))
					seq++
				} else {
					batch := make([][]byte, perBatch)
					for i := range batch {
						batch[i] = frame(g, seq)
						seq++
					}
					err = tx.SendBatch(batch)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	next := make([]int, senders)
	total := senders / 2 * rounds * (1 + perBatch)
	for i := 0; i < total; i++ {
		p, err := rx.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("after %d of %d frames: %v", i, total, err)
		}
		if len(p) < 5 || int(p[0]) >= senders {
			t.Fatalf("frame %d: torn header (%d bytes)", i, len(p))
		}
		g, seq := int(p[0]), int(binary.BigEndian.Uint32(p[1:5]))
		if seq != next[g] || !bytes.Equal(p, frame(g, seq)) {
			t.Fatalf("frame %d: sender %d seq %d (want seq %d) torn or reordered", i, g, seq, next[g])
		}
		next[g]++
	}
}

// BenchmarkRealStreamFrames measures one coalesced flush over loopback TCP:
// a 16-frame SendBatch of 300-byte frames, then the 16 Recvs that read it.
func BenchmarkRealStreamFrames(b *testing.B) {
	tx, rx := newRealStreamPair(b)
	frames := make([][]byte, 16)
	for i := range frames {
		frames[i] = filled(300, byte(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.SendBatch(frames); err != nil {
			b.Fatal(err)
		}
		for range frames {
			if _, err := rx.RecvTimeout(2 * time.Second); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestRealMulticastLoopback(t *testing.T) {
	// IP multicast may be unavailable in constrained environments; skip then.
	node := NewRealNode("", nil)
	recvPC, err := node.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	defer recvPC.Close()
	const group = "narada/discovery"
	if err := recvPC.JoinGroup(group); err != nil {
		t.Skipf("multicast unavailable: %v", err)
	}
	sendPC, err := node.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sendPC.Close()
	if err := sendPC.SendGroup(group, []byte("mc")); err != nil {
		t.Skipf("multicast send unavailable: %v", err)
	}
	payload, _, err := recvPC.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Skipf("multicast delivery unavailable: %v", err)
	}
	if string(payload) != "mc" {
		t.Fatalf("got %q", payload)
	}
}

func TestRealUnknownGroup(t *testing.T) {
	node := NewRealNode("127.0.0.1", map[string]string{})
	pc, _ := node.ListenPacket(0)
	defer pc.Close()
	if err := pc.JoinGroup("not-a-group-or-addr"); err == nil {
		t.Fatal("unknown group accepted")
	}
}

func TestNodeInterfaceCompliance(t *testing.T) {
	var _ Node = (*SimNode)(nil)
	var _ Node = (*RealNode)(nil)
}

func BenchmarkSimStreamThroughput(b *testing.B) {
	n := simnet.NewPaperWAN(simnet.Config{Scale: 1000, Seed: 1})
	a := NewSimNode(n, simnet.SiteBloomington, "a", 0)
	c := NewSimNode(n, simnet.SiteIndianapolis, "c", 0)
	l, _ := c.Listen(0)
	go func() {
		srv, err := l.Accept()
		if err != nil {
			return
		}
		for {
			if _, err := srv.Recv(); err != nil {
				return
			}
		}
	}()
	conn, err := a.Dial(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleParseSimAddr() {
	addr, _ := ParseSimAddr("cardiff/broker2:10042")
	fmt.Println(addr.Site, addr.Host, addr.Port)
	// Output: cardiff broker2 10042
}
