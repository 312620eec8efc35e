package main

import (
	"fmt"
	"math/rand"
	"time"

	"narada/internal/bdn"
	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/transport"
)

const (
	// fabricBrokers is the length of the broker chain (paper Fig. 11).
	fabricBrokers = 8
	bdnName       = "gridservicelocator.org"
	loopback      = "127.0.0.1"
	// readyTimeout bounds how long set-up waits for every registration and
	// link to come up.
	readyTimeout = 10 * time.Second
)

// fabric is one in-process deployment over real loopback sockets: a BDN
// with an in-memory registry and eight brokers, each registered with the
// BDN and linked into a chain b0-b1-...-b7. It is built only from the
// public constructors the bdn and broker commands use, on the system clock.
type fabric struct {
	tr      *tracer // nil for an untraced fabric
	rng     *rand.Rand
	bdn     *bdn.BDN
	brokers []*broker.Broker
	regs    []*obs.Registry // the BDN's, then each broker's
	live    map[string]bool // logical addresses of the running brokers
	clients []*broker.Client
}

// startFabric boots the fabric and returns once the BDN holds every
// registration and every chain link is up on both sides.
func startFabric(seed int64, tr *tracer) (*fabric, error) {
	f := &fabric{tr: tr, rng: rand.New(rand.NewSource(seed)), live: make(map[string]bool)}
	node := f.node("bdn")
	reg := obs.NewRegistry()
	d, err := bdn.New(node, f.ntp(node), bdn.Config{
		Name:           bdnName,
		Policy:         bdn.InjectClosestFarthest,
		InjectOverhead: 0,
		Metrics:        reg,
	})
	if err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		return nil, err
	}
	f.bdn = d
	f.regs = append(f.regs, reg)
	for i := 0; i < fabricBrokers; i++ {
		name := fmt.Sprintf("b%d", i)
		node := f.node(name)
		reg := obs.NewRegistry()
		b, err := broker.New(node, f.ntp(node), broker.Config{
			LogicalAddress: name,
			Hostname:       "perfbench",
			Realm:          "loopback",
			Metrics:        reg,
			Sampler:        f.sampler(),
		})
		if err == nil {
			err = b.Start()
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("broker %s: %w", name, err)
		}
		f.brokers = append(f.brokers, b)
		f.regs = append(f.regs, reg)
		f.live[name] = true
		if err := b.RegisterWithBDN(d.Addr()); err != nil {
			f.close()
			return nil, fmt.Errorf("broker %s: register: %w", name, err)
		}
		if i > 0 {
			if err := b.LinkTo(f.brokers[i-1].StreamAddr()); err != nil {
				f.close()
				return nil, fmt.Errorf("broker %s: link: %w", name, err)
			}
		}
	}
	if err := f.waitReady(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// waitReady polls until the BDN knows every broker and every broker holds
// its BDN registration plus its chain links.
func (f *fabric) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for {
		ready := f.bdn.BrokerCount() == fabricBrokers
		for i, b := range f.brokers {
			want := 3 // BDN registration + both neighbours
			if i == 0 || i == fabricBrokers-1 {
				want = 2
			}
			if b.LinkCount() != want {
				ready = false
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fabric not ready after %v", readyTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// node returns a loopback transport node, decorated when tracing.
func (f *fabric) node(name string) transport.Node {
	n := transport.NewRealNode(loopback, nil)
	if f.tr == nil {
		return n
	}
	return f.tr.wrapNode(name, n)
}

// ntp returns a synchronized NTP service for a node. Synchronisation is
// immediate, as in the discover command, so no run measures across the
// 3-5 s start-up transition; the residual error is drawn from the seed.
func (f *fabric) ntp(n transport.Node) *ntptime.Service {
	s := ntptime.NewService(n.Clock(), 0, rand.New(rand.NewSource(f.rng.Int63())))
	s.InitImmediately()
	return s
}

// sampler is nil (the broker's default runtime sampler) unless tracing, in
// which case it is the same runtime sampler behind a timing decorator.
func (f *fabric) sampler() metrics.Sampler {
	if f.tr == nil {
		return nil
	}
	return f.tr.wrapSampler(metrics.NewRuntimeSampler())
}

// requester is one discovering node with its own transport node.
type requester struct {
	name string
	d    *core.Discoverer
	node *tnode // nil when untraced
}

// requester builds a discoverer configured like the discover command with
// the collection window ended by the eighth response; CollectWindow and
// PingWindow keep their defaults and act only as timeouts.
func (f *fabric) requester(name string) *requester {
	node := f.node(name)
	d := core.NewDiscoverer(node, f.ntp(node), core.Config{
		NodeName:       name,
		Realm:          "loopback",
		BDNAddrs:       []string{f.bdn.Addr()},
		MaxResponses:   fabricBrokers,
		MaxRetransmits: core.DefaultMaxRetransmits,
	})
	r := &requester{name: name, d: d}
	if tn, ok := node.(*tnode); ok {
		r.node = tn
	}
	return r
}

// connect opens a client session on broker i.
func (f *fabric) connect(i int, name string) (*broker.Client, error) {
	c, err := broker.Connect(f.node(name), f.brokers[i].StreamAddr(), name)
	if err != nil {
		return nil, err
	}
	f.clients = append(f.clients, c)
	return c, nil
}

// egressDropped sums every broker's egress drop counter.
func (f *fabric) egressDropped() uint64 {
	var n uint64
	for _, b := range f.brokers {
		n += b.EgressDropped()
	}
	return n
}

// close tears the fabric down and waits for its goroutines.
func (f *fabric) close() {
	for _, c := range f.clients {
		c.Close()
	}
	for _, b := range f.brokers {
		b.Close()
	}
	if f.bdn != nil {
		f.bdn.Close()
	}
}
