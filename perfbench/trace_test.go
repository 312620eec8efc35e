package main

import (
	"testing"
	"time"

	"narada/internal/metrics"
	"narada/internal/transport"
)

// The decorators must keep the optional capabilities the fabric
// type-asserts for: broker egress falls back to one Send per frame without
// BatchSender, and brokers advertise Links = 0 without SetLinks.
func TestDecoratorsKeepCapabilities(t *testing.T) {
	tr, err := newTracer()
	if err != nil {
		t.Fatal(err)
	}
	n := tr.wrapNode("x", transport.NewRealNode(loopback, nil))
	l, err := n.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ac := <-accepted
	if ac == nil {
		t.FailNow()
	}
	defer ac.Close()
	if _, ok := ac.(transport.BatchSender); !ok {
		t.Error("accepted conn lost transport.BatchSender")
	}
	bs, ok := c.(transport.BatchSender)
	if !ok {
		t.Fatal("dialed conn lost transport.BatchSender")
	}
	if err := bs.SendBatch([][]byte{[]byte("a"), []byte("b")}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a", "b"} {
		got, err := ac.RecvTimeout(5 * time.Second)
		if err != nil || string(got) != want {
			t.Fatalf("batched frame = %q, %v; want %q", got, err, want)
		}
	}

	s := tr.wrapSampler(metrics.NewRuntimeSampler())
	ls, ok := s.(interface {
		SetLinks(int)
		SetCPULoad(float64)
	})
	if !ok {
		t.Fatal("sampler decorator lost SetLinks/SetCPULoad")
	}
	ls.SetLinks(3)
	if got := s.Sample().Links; got != 3 {
		t.Fatalf("Links = %d after SetLinks(3)", got)
	}
}

// A traced fabric behaves like an untraced one: discoveries pass the same
// checks and see the same advertised connection counts, and publish
// traffic is delivered exactly once while broker egress still coalesces
// frames into vectored writes.
func TestTracedFabricBehavesLikeUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two fabrics")
	}
	in := makeInputs(7)
	links := func(tr *tracer) map[int]bool {
		f, err := startFabric(in.seed, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer f.close()
		o, err := runWorkload(f, in, "discover", time.Second)
		if err != nil || o.fails.count() > 0 {
			t.Fatalf("discover traced=%v: %v %v", tr != nil, err, o.fails.reasons)
		}
		seen := make(map[int]bool)
		for _, r := range o.disc.recs {
			seen[r.minLinks] = true
		}
		return seen
	}
	tr, err := newTracer()
	if err != nil {
		t.Fatal(err)
	}
	plain, traced := links(nil), links(tr)
	if len(traced) == 0 || traced[0] {
		t.Fatalf("traced responses advertise Links = 0: fewest per discovery %v", traced)
	}
	for l := range plain {
		if !traced[l] {
			t.Errorf("untraced fewest advertised Links %v, traced %v", plain, traced)
		}
	}

	ptr, err := newTracer()
	if err != nil {
		t.Fatal(err)
	}
	f, err := startFabric(in.seed, ptr)
	if err != nil {
		t.Fatal(err)
	}
	o, err := runWorkload(f, in, "publish", 2*time.Second)
	f.close()
	if err != nil || o.fails.count() > 0 || o.lost > 0 {
		t.Fatalf("publish: %v %v", err, o.fails.reasons)
	}
	h := &ptr.hists[hBatchFrames]
	if h.count.Load() == 0 || h.mean() <= 1 {
		t.Fatalf("frames_per_batch = %.2f over %d vectored writes; egress no longer batches through the decorator",
			h.mean(), h.count.Load())
	}
}
