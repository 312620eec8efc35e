package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
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
