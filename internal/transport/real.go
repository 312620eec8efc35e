package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"narada/internal/ntptime"
)

// MaxFrame bounds a single TCP frame (matches wire.MaxBytesLen plus headroom
// for the envelope).
const MaxFrame = 1<<24 + 1024

// DefaultMulticastGroups maps symbolic group names used by the protocol to
// concrete IP multicast addresses for real deployments.
var DefaultMulticastGroups = map[string]string{
	"narada/discovery": "239.192.77.77:45454",
}

// RealNode is the Node implementation over the operating system's sockets.
type RealNode struct {
	bindIP string
	clock  ntptime.SystemClock
	groups map[string]string
}

// NewRealNode creates a socket-backed node binding to bindIP ("" means all
// interfaces, "127.0.0.1" keeps everything loopback-local). groups may be nil
// to use DefaultMulticastGroups.
func NewRealNode(bindIP string, groups map[string]string) *RealNode {
	if groups == nil {
		groups = DefaultMulticastGroups
	}
	return &RealNode{bindIP: bindIP, groups: groups}
}

// Clock implements Node.
func (n *RealNode) Clock() ntptime.Clock { return n.clock }

// ListenPacket implements Node.
func (n *RealNode) ListenPacket(port int) (PacketConn, error) {
	addr := &net.UDPAddr{IP: net.ParseIP(n.bindIP), Port: port}
	uc, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, err
	}
	return &realPacketConn{node: n, uc: uc}, nil
}

// Listen implements Node.
func (n *RealNode) Listen(port int) (Listener, error) {
	l, err := net.Listen("tcp", fmt.Sprintf("%s:%d", n.bindIP, port))
	if err != nil {
		return nil, err
	}
	return &realListener{l: l}, nil
}

// Dial implements Node.
func (n *RealNode) Dial(addr string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return newRealConn(c), nil
}

type realPacketConn struct {
	node *RealNode
	uc   *net.UDPConn

	mu     sync.Mutex
	joined map[string]*net.UDPConn // group name -> multicast reader
	inbox  chan packet
	once   sync.Once
}

type packet struct {
	payload []byte
	from    string
}

// maxDatagram is the largest payload one UDP read can return. A smaller read
// buffer would let the kernel silently truncate larger datagrams.
const maxDatagram = 1 << 16

// datagramBufs holds maxDatagram-byte read scratch shared by every real
// packet conn: core.Discoverer opens a fresh conn per discovery, so a per-conn
// buffer would still cost one 64 KiB allocation per Discover.
var datagramBufs = sync.Pool{New: func() any { return new([maxDatagram]byte) }}

// readDatagram reads one datagram into pooled scratch and returns an
// exact-size copy the caller owns, with the sender as "ip:port" (an IPv4
// sender stays "1.2.3.4:port" even on a dual-stack socket).
func readDatagram(uc *net.UDPConn) ([]byte, string, error) {
	buf := datagramBufs.Get().(*[maxDatagram]byte)
	defer datagramBufs.Put(buf)
	n, from, err := uc.ReadFromUDPAddrPort(buf[:])
	if err != nil {
		return nil, "", err
	}
	payload := make([]byte, n)
	copy(payload, buf[:n])
	return payload, netip.AddrPortFrom(from.Addr().Unmap(), from.Port()).String(), nil
}

// Send writes payload to to, an "ip:port" literal or a "host:port" that is
// resolved on every call.
func (p *realPacketConn) Send(to string, payload []byte) error {
	ap, err := netip.ParseAddrPort(to)
	if err != nil {
		addr, err := net.ResolveUDPAddr("udp", to)
		if err != nil {
			return err
		}
		ap = addr.AddrPort()
	}
	_, err = p.uc.WriteToUDPAddrPort(payload, netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()))
	return translateNetErr(err)
}

func (p *realPacketConn) Recv() ([]byte, string, error) {
	return p.recv(0)
}

func (p *realPacketConn) RecvTimeout(d time.Duration) ([]byte, string, error) {
	return p.recv(d)
}

// recv reads from the unicast socket or, when groups are joined, from the
// merged inbox fed by reader goroutines.
func (p *realPacketConn) recv(d time.Duration) ([]byte, string, error) {
	p.mu.Lock()
	inbox := p.inbox
	p.mu.Unlock()
	if inbox != nil {
		var timer <-chan time.Time
		if d > 0 {
			timer = time.After(d)
		}
		select {
		case pkt, ok := <-inbox:
			if !ok {
				return nil, "", ErrClosed
			}
			return pkt.payload, pkt.from, nil
		case <-timer:
			return nil, "", ErrTimeout
		}
	}
	if d > 0 {
		if err := p.uc.SetReadDeadline(time.Now().Add(d)); err != nil {
			return nil, "", err
		}
		defer p.uc.SetReadDeadline(time.Time{}) //nolint:errcheck
	}
	payload, from, err := readDatagram(p.uc)
	return payload, from, translateNetErr(err)
}

func (p *realPacketConn) LocalAddr() string { return p.uc.LocalAddr().String() }

func (p *realPacketConn) groupAddr(group string) (string, error) {
	if a, ok := p.node.groups[group]; ok {
		return a, nil
	}
	// Allow literal "ip:port" groups.
	if _, err := net.ResolveUDPAddr("udp", group); err == nil {
		return group, nil
	}
	return "", fmt.Errorf("transport: unknown multicast group %q", group)
}

func (p *realPacketConn) JoinGroup(group string) error {
	addrStr, err := p.groupAddr(group)
	if err != nil {
		return err
	}
	gaddr, err := net.ResolveUDPAddr("udp", addrStr)
	if err != nil {
		return err
	}
	mc, err := net.ListenMulticastUDP("udp", nil, gaddr)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if p.joined == nil {
		p.joined = make(map[string]*net.UDPConn)
	}
	if _, dup := p.joined[group]; dup {
		p.mu.Unlock()
		_ = mc.Close()
		return nil
	}
	p.joined[group] = mc
	if p.inbox == nil {
		p.inbox = make(chan packet, 256)
		go p.pumpUnicast()
	}
	inbox := p.inbox
	p.mu.Unlock()
	go pumpReader(mc, inbox)
	return nil
}

// pumpUnicast forwards unicast datagrams into the merged inbox once
// multicast readers exist.
func (p *realPacketConn) pumpUnicast() {
	pumpReader(p.uc, p.inbox)
}

func pumpReader(uc *net.UDPConn, inbox chan packet) {
	for {
		payload, from, err := readDatagram(uc)
		if err != nil {
			return
		}
		select {
		case inbox <- packet{payload: payload, from: from}:
		default: // inbox overflow: drop like a kernel buffer
		}
	}
}

func (p *realPacketConn) LeaveGroup(group string) error {
	p.mu.Lock()
	mc, ok := p.joined[group]
	delete(p.joined, group)
	p.mu.Unlock()
	if ok {
		return mc.Close()
	}
	return nil
}

func (p *realPacketConn) SendGroup(group string, payload []byte) error {
	addrStr, err := p.groupAddr(group)
	if err != nil {
		return err
	}
	return p.Send(addrStr, payload)
}

func (p *realPacketConn) Close() error {
	var err error
	p.once.Do(func() {
		p.mu.Lock()
		for _, mc := range p.joined {
			_ = mc.Close()
		}
		p.joined = nil
		p.mu.Unlock()
		err = p.uc.Close()
	})
	return err
}

// streamScratch sizes the read scratch of a stream conn: large enough that
// one read drains a typical coalesced egress flush, small enough that the
// conns reading at once do not lift the heap peak.
const streamScratch = 8 << 10

// streamBufs holds read scratch shared by every real stream conn. A conn
// holds one only while unread bytes remain: it waits for the next frame
// with a 4-byte read into its own header array, so idle conns (a long-lived
// link or session parked in Recv, or a short-lived dial) pin none.
var streamBufs = sync.Pool{New: func() any { return new([streamScratch]byte) }}

// realConn frames messages over TCP with a 4-byte big-endian length prefix.
type realConn struct {
	c       net.Conn
	readMu  sync.Mutex
	writeMu sync.Mutex

	// Read state, guarded by readMu. buf[r:w] holds received bytes not yet
	// returned as frames; buf is nil whenever that range is empty, and a
	// read with nothing buffered goes into hdr instead. large is the
	// exact-size payload of a frame bigger than the scratch, of which the
	// first largeN bytes have arrived; a timeout leaves both in place so the
	// next recv resumes mid-frame.
	hdr    [4]byte
	buf    *[streamScratch]byte
	r, w   int
	large  []byte
	largeN int

	// Batch-write scratch, guarded by writeMu: headers for every frame of a
	// batch and the vectored-write view over headers and payloads. The write
	// consumes batchView, a copy of the view, so batchBufs keeps its capacity
	// and no view escapes to the heap per call.
	batchHdrs []byte
	batchBufs net.Buffers
	batchView net.Buffers
}

func newRealConn(c net.Conn) *realConn { return &realConn{c: c} }

// Send writes one frame, header and payload in a single vectored write.
func (c *realConn) Send(payload []byte) error {
	return c.SendBatch([][]byte{payload})
}

// SendBatch implements BatchSender: all frames (each with its length prefix)
// leave in one vectored write, so a coalescing egress writer pays one
// syscall per flush instead of two per frame. The header scratch may regrow
// mid-loop; slices into the old backing array keep their bytes, so the
// already-collected views stay valid.
func (c *realConn) SendBatch(frames [][]byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	hdrs := c.batchHdrs[:0]
	bufs := c.batchBufs[:0]
	for _, p := range frames {
		if len(p) > MaxFrame {
			return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(p))
		}
		off := len(hdrs)
		hdrs = binary.BigEndian.AppendUint32(hdrs, uint32(len(p)))
		bufs = append(bufs, hdrs[off:off+4], p)
	}
	c.batchHdrs = hdrs[:0]
	c.batchBufs = bufs[:0]
	c.batchView = bufs
	_, err := c.batchView.WriteTo(c.c)
	return translateNetErr(err)
}

func (c *realConn) Recv() ([]byte, error) { return c.recv(0) }

func (c *realConn) RecvTimeout(d time.Duration) ([]byte, error) { return c.recv(d) }

// recv returns the next frame as an exact-size copy the caller owns. A frame
// already buffered costs no syscall. With nothing buffered, recv blocks on a
// read of the next header alone and takes a scratch only once it arrives;
// one more read then fills the scratch with as many frames as the kernel
// has queued.
func (c *realConn) recv(d time.Duration) ([]byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if p, ok, err := c.buffered(); ok || err != nil {
		return p, err
	}
	if d > 0 {
		if err := c.c.SetReadDeadline(time.Now().Add(d)); err != nil {
			return nil, err
		}
		defer c.c.SetReadDeadline(time.Time{}) //nolint:errcheck
	}
	for {
		if c.large != nil {
			n, err := io.ReadFull(c.c, c.large[c.largeN:])
			c.largeN += n
			if err != nil {
				return nil, translateNetErr(err)
			}
			p := c.large
			c.large, c.largeN = nil, 0
			return p, nil
		}
		var n int
		var err error
		if c.buf == nil {
			n, err = c.c.Read(c.hdr[:])
			if n > 0 {
				c.buf = streamBufs.Get().(*[streamScratch]byte)
				c.w = copy(c.buf[:], c.hdr[:n])
			}
		} else {
			n, err = c.c.Read(c.buf[c.w:])
			c.w += n
		}
		if p, ok, perr := c.buffered(); ok || perr != nil {
			return p, perr
		}
		if err != nil {
			c.releaseIfDrained()
			return nil, translateNetErr(err)
		}
	}
}

// buffered pops the next whole frame out of the scratch. When only part of
// a frame is buffered it makes room for the rest: a frame that fits is
// moved to the front of the scratch, a larger one moves its prefix into an
// exact-size payload that recv then fills straight from the socket.
func (c *realConn) buffered() ([]byte, bool, error) {
	avail := c.w - c.r
	if avail < 4 {
		c.compact()
		return nil, false, nil
	}
	n := binary.BigEndian.Uint32(c.buf[c.r:])
	if n > MaxFrame {
		return nil, false, fmt.Errorf("transport: incoming frame of %d bytes exceeds limit", n)
	}
	size := 4 + int(n)
	switch {
	case size <= avail:
		p := make([]byte, n)
		copy(p, c.buf[c.r+4:c.r+size])
		c.r += size
		c.releaseIfDrained()
		return p, true, nil
	case size > streamScratch:
		c.large = make([]byte, n)
		c.largeN = copy(c.large, c.buf[c.r+4:c.w])
		c.r = c.w
		c.releaseIfDrained()
	default:
		c.compact()
	}
	return nil, false, nil
}

// compact moves the unread bytes to the front of the scratch, so a frame
// that fits in it always has room to complete.
func (c *realConn) compact() {
	if c.r > 0 {
		c.w = copy(c.buf[:], c.buf[c.r:c.w])
		c.r = 0
	}
}

// releaseIfDrained hands the scratch back to the pool once every buffered
// byte has been returned.
func (c *realConn) releaseIfDrained() {
	if c.buf != nil && c.r == c.w {
		streamBufs.Put(c.buf)
		c.buf, c.r, c.w = nil, 0, 0
	}
}

func (c *realConn) LocalAddr() string  { return c.c.LocalAddr().String() }
func (c *realConn) RemoteAddr() string { return c.c.RemoteAddr().String() }
func (c *realConn) Close() error       { return c.c.Close() }

type realListener struct{ l net.Listener }

func (l *realListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, translateNetErr(err)
	}
	return newRealConn(c), nil
}

func (l *realListener) Addr() string { return l.l.Addr().String() }
func (l *realListener) Close() error { return l.l.Close() }

// translateNetErr maps net errors onto the transport vocabulary.
func translateNetErr(err error) error {
	if err == nil {
		return nil
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return ErrTimeout
	}
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
		return ErrClosed
	}
	return err
}
