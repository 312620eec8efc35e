package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"narada/internal/event"
	"narada/internal/metrics"
	"narada/internal/transport"
)

// The traced run wraps every transport endpoint and every broker's usage
// sampler in the decorators below. They time each call into the layer
// below, record a span for each frame that belongs to a traced request or
// event, and otherwise only forward: behaviour is unchanged (see
// trace_test.go).

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kSend         spanKind = iota + 1 // transport.Conn.Send
	kBatch                            // one frame of a transport.BatchSender.SendBatch
	kRecv                             // transport.Conn.Recv / RecvTimeout
	kUDPSend                          // transport.PacketConn.Send
	kUDPRecv                          // transport.PacketConn.Recv / RecvTimeout
	kDial                             // transport.Node.Dial
	kListenPacket                     // transport.Node.ListenPacket
)

var kindNames = [...]string{kSend: "transport.send", kBatch: "transport.batch_send",
	kRecv: "transport.recv", kUDPSend: "transport.udp_send", kUDPRecv: "transport.udp_recv",
	kDial: "transport.dial", kListenPacket: "transport.listen_packet"}

// span is one timed call. key groups the spans of one traced unit: a
// discovery (requester key) or a publish event (pubKey of its sequence
// number).
type span struct {
	t0, t1 int64 // mono ns
	key    uint64
	node   uint16
	kind   spanKind
	ftype  event.Type // type of the frame sent or received, 0 if none
}

// pubKey is the trace key of publish event seq.
func pubKey(seq uint64) uint64 { return 1<<63 | seq }

// Timing histograms kept for every call, traced unit or not.
const (
	hDial = iota
	hTCPSend
	hBatchSend
	hBatchFrames // frames per SendBatch (a count, not ns)
	hUDPSend
	hRecvWait
	hSample
	numHists
)

// frameMagic is the first byte of every encoded event frame; bytes 2 and
// 3..18 hold its type and ID.
const frameMagic = 0xB7

// maxSpans bounds the in-memory span buffer.
const maxSpans = 1 << 20

// sampleEvery traces one publish event in this many (by sequence number);
// discoveries are all traced.
const sampleEvery = 8

// tracer owns the span buffer, the histograms and the node registry of one
// traced fabric.
type tracer struct {
	mu      sync.Mutex
	spans   []span // in a mapping outside the Go heap, see newTracer
	dropped int
	names   []string
	byName  map[string]uint16

	reqKeys  sync.Map // request event ID [16]byte -> discovery key
	hists    [numHists]hist
	captured map[event.Type][][]byte // a few real frames per type
}

// newTracer maps the span buffer outside the Go heap: a heap buffer would
// raise the collector's heap goal and so change how often the fabric is
// collected, which alone moves its latency by more than tracing costs.
// Spans hold no pointers, so the collector need not see them. The mapping
// is never unmapped: a client goroutine that outlives its fabric's Close
// may still record into it, and the process ends soon after the run.
func newTracer() (*tracer, error) {
	mem, err := syscall.Mmap(-1, 0, maxSpans*int(unsafe.Sizeof(span{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the span buffer: %w", err)
	}
	return &tracer{spans: unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), maxSpans)[:0],
		byName: make(map[string]uint16), captured: make(map[event.Type][][]byte)}, nil
}

// record appends a span; p, when set, is its frame, of which the first few
// of each type are kept for the isolated codec passes.
func (t *tracer) record(s span, p []byte) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	if p != nil && len(t.captured[s.ftype]) < 8 {
		t.captured[s.ftype] = append(t.captured[s.ftype], append([]byte(nil), p...))
	}
	t.mu.Unlock()
}

// nodeIndex returns the index of a named node.
func (t *tracer) nodeIndex(name string) (uint16, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.byName[name]
	return i, ok
}

func (t *tracer) wrapNode(name string, n transport.Node) transport.Node {
	t.mu.Lock()
	idx := uint16(len(t.names))
	t.names = append(t.names, name)
	t.byName[name] = idx
	t.mu.Unlock()
	return &tnode{Node: n, tr: t, idx: idx}
}

func (t *tracer) wrapSampler(s *metrics.RuntimeSampler) metrics.Sampler {
	return &tsampler{RuntimeSampler: s, tr: t}
}

// tnode decorates a transport.Node.
type tnode struct {
	transport.Node
	tr  *tracer
	idx uint16
	// key is the discovery in progress on a requester's node (0 = none):
	// every call the node sees belongs to it.
	key atomic.Uint64
}

// isFrame reports whether p is an encoded event frame.
func isFrame(p []byte) bool { return len(p) >= 19 && p[0] == frameMagic }

// announce maps a discovery request's event ID to the discovery in
// progress, before the frame leaves the requester, so that the BDN and the
// brokers can file their spans of it under the same key.
func (n *tnode) announce(p []byte) {
	if key := n.key.Load(); key != 0 && isFrame(p) && event.Type(p[2]) == event.TypeDiscoveryRequest {
		n.tr.reqKeys.Store([16]byte(p[3:19]), key)
	}
}

// frame records a span for a frame that belongs to a traced unit: a
// sampled publish event, a traced discovery's request anywhere in the
// fabric, or any frame on a requester's node during a discovery.
func (n *tnode) frame(kind spanKind, p []byte, t0, t1 int64) {
	if !isFrame(p) {
		return
	}
	typ := event.Type(p[2])
	key := n.key.Load()
	switch typ {
	case event.TypePublish:
		if len(p) < payloadSize+19 {
			return
		}
		seq := binary.LittleEndian.Uint64(p[len(p)-payloadSize:])
		if seq%sampleEvery != 0 {
			return
		}
		key = pubKey(seq)
	case event.TypeDiscoveryRequest:
		if k, ok := n.tr.reqKeys.Load([16]byte(p[3:19])); ok {
			key = k.(uint64)
		}
	}
	if key != 0 {
		n.tr.record(span{t0: t0, t1: t1, key: key, node: n.idx, kind: kind, ftype: typ}, p)
	}
}

// call records a span for a call that carries no frame, on a requester
// node while a discovery is in progress.
func (n *tnode) call(kind spanKind, t0, t1 int64) {
	if key := n.key.Load(); key != 0 {
		n.tr.record(span{t0: t0, t1: t1, key: key, node: n.idx, kind: kind}, nil)
	}
}

func (n *tnode) Dial(addr string) (transport.Conn, error) {
	t0 := mono()
	c, err := n.Node.Dial(addr)
	t1 := mono()
	n.tr.hists[hDial].add(t1 - t0)
	n.call(kDial, t0, t1)
	if err != nil {
		return nil, err
	}
	return n.wrapConn(c), nil
}

func (n *tnode) Listen(port int) (transport.Listener, error) {
	l, err := n.Node.Listen(port)
	if err != nil {
		return nil, err
	}
	return &tlistener{Listener: l, n: n}, nil
}

func (n *tnode) ListenPacket(port int) (transport.PacketConn, error) {
	t0 := mono()
	pc, err := n.Node.ListenPacket(port)
	n.call(kListenPacket, t0, mono())
	if err != nil {
		return nil, err
	}
	return &tpacket{PacketConn: pc, n: n}, nil
}

// wrapConn decorates a Conn, keeping its optional BatchSender capability:
// broker egress type-asserts for it and would otherwise fall back to one
// Send per frame.
func (n *tnode) wrapConn(c transport.Conn) transport.Conn {
	tc := &tconn{Conn: c, n: n}
	if b, ok := c.(transport.BatchSender); ok {
		return &tbatchConn{tconn: tc, batch: b}
	}
	return tc
}

type tlistener struct {
	transport.Listener
	n *tnode
}

func (l *tlistener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.n.wrapConn(c), nil
}

type tconn struct {
	transport.Conn
	n *tnode
}

func (c *tconn) Send(p []byte) error {
	c.n.announce(p)
	t0 := mono()
	err := c.Conn.Send(p)
	t1 := mono()
	c.n.tr.hists[hTCPSend].add(t1 - t0)
	c.n.frame(kSend, p, t0, t1)
	return err
}

func (c *tconn) Recv() ([]byte, error) {
	t0 := mono()
	p, err := c.Conn.Recv()
	c.received(p, err, t0)
	return p, err
}

func (c *tconn) RecvTimeout(d time.Duration) ([]byte, error) {
	t0 := mono()
	p, err := c.Conn.RecvTimeout(d)
	c.received(p, err, t0)
	return p, err
}

func (c *tconn) received(p []byte, err error, t0 int64) {
	t1 := mono()
	c.n.tr.hists[hRecvWait].add(t1 - t0)
	if err == nil {
		c.n.frame(kRecv, p, t0, t1)
	}
}

type tbatchConn struct {
	*tconn
	batch transport.BatchSender
}

func (c *tbatchConn) SendBatch(frames [][]byte) error {
	t0 := mono()
	err := c.batch.SendBatch(frames)
	t1 := mono()
	c.n.tr.hists[hBatchSend].add(t1 - t0)
	c.n.tr.hists[hBatchFrames].add(int64(len(frames)))
	for _, p := range frames {
		c.n.frame(kBatch, p, t0, t1)
	}
	return err
}

type tpacket struct {
	transport.PacketConn
	n *tnode
}

func (p *tpacket) Send(to string, payload []byte) error {
	t0 := mono()
	err := p.PacketConn.Send(to, payload)
	t1 := mono()
	p.n.tr.hists[hUDPSend].add(t1 - t0)
	p.n.frame(kUDPSend, payload, t0, t1)
	return err
}

func (p *tpacket) Recv() ([]byte, string, error) {
	t0 := mono()
	b, from, err := p.PacketConn.Recv()
	p.received(b, err, t0)
	return b, from, err
}

func (p *tpacket) RecvTimeout(d time.Duration) ([]byte, string, error) {
	t0 := mono()
	b, from, err := p.PacketConn.RecvTimeout(d)
	p.received(b, err, t0)
	return b, from, err
}

func (p *tpacket) received(b []byte, err error, t0 int64) {
	t1 := mono()
	p.n.tr.hists[hRecvWait].add(t1 - t0)
	if err == nil {
		p.n.frame(kUDPRecv, b, t0, t1)
	} else {
		p.n.call(kUDPRecv, t0, t1)
	}
}

// tsampler decorates the runtime sampler. Embedding keeps SetLinks and
// SetCPULoad, which the broker type-asserts for to keep the advertised
// connection count current.
type tsampler struct {
	*metrics.RuntimeSampler
	tr *tracer
}

func (s *tsampler) Sample() metrics.Usage {
	t0 := mono()
	u := s.RuntimeSampler.Sample()
	s.tr.hists[hSample].add(mono() - t0)
	return u
}

// hist is a lock-free log-linear histogram: 32 linear sub-buckets per
// power of two, so a quantile read from it is within about 3%.
type hist struct {
	buckets [64 << subBits]atomic.Uint64
	sum     atomic.Int64
	count   atomic.Int64
}

const subBits = 5

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return (e+1)<<subBits | int(v>>e&(1<<subBits-1))
}

// bucketMid is the midpoint of bucket i's value range.
func bucketMid(i int) float64 {
	if i < 1<<subBits {
		return float64(i)
	}
	e := i>>subBits - 1
	lo := uint64(i&(1<<subBits-1)|1<<subBits) << e
	return float64(lo) + float64(uint64(1)<<e)/2
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(uint64(v))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// quantile returns the q-quantile, 0 when empty.
func (h *hist) quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n-1))
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			return bucketMid(i)
		}
	}
	return 0
}

func (h *hist) mean() float64 {
	if n := h.count.Load(); n > 0 {
		return float64(h.sum.Load()) / float64(n)
	}
	return 0
}
