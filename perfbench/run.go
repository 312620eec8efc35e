package main

import (
	"fmt"
	"sync"
	"time"

	"narada/internal/broker"
)

// outcome is everything one workload run measured.
type outcome struct {
	workload string
	fails    *failures

	disc *discLog // discoveries (discover, mixed)

	open    *stage  // publish stage 1 / the mixed stream
	openLat *series // ms from due time to arrival, windowed by due time
	lag     *series // ms from due time to the Publish call, windowed by due time
	sent    int     // events published across stages
	lost    int     // events published but never delivered

	closed *stage // publish stage 2

	cpuMarks []time.Duration // process CPU at the cpu windows' boundaries
	cpuOps   []int           // operations completed in each cpu window

	egressDropped uint64
}

// runWorkload drives one workload on f for span of measurement.
func runWorkload(f *fabric, in *inputs, workload string, span time.Duration) (*outcome, error) {
	o := &outcome{workload: workload, fails: &failures{}}
	dropped0 := f.egressDropped()
	var err error
	switch workload {
	case "discover":
		err = o.runDiscover(f, in, span, 2, 0, nil)
	case "publish":
		err = o.runPublish(f, in, span)
	case "mixed":
		err = o.runMixed(f, in, span)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	o.egressDropped = f.egressDropped() - dropped0
	if o.egressDropped > 0 {
		o.fails.addN(int(o.egressDropped), "%d frames dropped at broker egress", o.egressDropped)
	}
	return o, err
}

// runDiscover runs requesters closed-loop requesters, each pausing think
// between discoveries, over fresh windows. beside, when set, runs alongside
// them over the same windows.
func (o *outcome) runDiscover(f *fabric, in *inputs, span time.Duration, requesters int, think time.Duration, beside func(w windowed) error) error {
	reqs := make([]*requester, requesters)
	for i := range reqs {
		reqs[i] = f.requester(in.requesters[i])
	}
	w := newWindows(warmup, span, numWindows)
	o.disc = &discLog{lat: newSeries(w), done: newRate(w)}
	marks, done := cpuMarks(w)
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r *requester) {
			defer wg.Done()
			discoverLoop(f, r, i, w, think, o.disc, o.fails)
		}(i, r)
	}
	var err error
	if beside != nil {
		err = beside(w)
	}
	wg.Wait()
	<-done
	o.cpuMarks = marks
	o.cpuOps = o.disc.lat.counts()
	if o.openLat != nil {
		for i, n := range o.openLat.counts() {
			o.cpuOps[i] += n
		}
	}
	return err
}

// pubsub connects the seeded subscriber on the last broker and the
// publisher on the first, and waits until the subscriptions are in force.
func pubsub(f *fabric, in *inputs, fails *failures) (*broker.Client, *receiver, error) {
	sub, err := f.connect(fabricBrokers-1, in.subscriber)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range in.patterns {
		if err := sub.Subscribe(p); err != nil {
			return nil, nil, err
		}
	}
	pub, err := f.connect(0, in.publisher)
	if err != nil {
		return nil, nil, err
	}
	recv := startReceiver(in, sub, fails)
	// Subscriptions are applied in order, so once one probe event arrives
	// every pattern (the catch-all is last) is registered; probes sent
	// earlier were dropped for want of a match and can never arrive late.
	probe := newOpenStage(0, 1000)
	recv.cur.Store(probe)
	buf := make([]byte, payloadSize)
	for i := 0; i < probe.size; i++ {
		in.fillPayload(buf, uint64(i))
		if err := pub.Publish(in.topic(uint64(i)), buf); err != nil {
			return nil, nil, err
		}
		probe.n.Store(int64(i + 1))
		time.Sleep(5 * time.Millisecond)
		probe.mu.Lock()
		got := probe.received
		probe.mu.Unlock()
		if got > 0 {
			probe.drain()
			return pub, recv, nil
		}
	}
	return nil, nil, fmt.Errorf("subscriptions on %s not in force after %d probes", f.brokers[fabricBrokers-1].LogicalAddress(), probe.size)
}

// runOpen publishes the open-loop stream at rate over the windows of w,
// starting warmup before them, and waits for the stragglers.
func (o *outcome) runOpen(pub *broker.Client, recv *receiver, in *inputs, rate float64, w windowed) error {
	start := w.start - int64(warmup)
	st := newOpenStage(1<<32, int(rate*float64(w.end()-start)/1e9)+1)
	recv.cur.Store(st)
	o.open, o.openLat, o.lag = st, newSeries(w), newSeries(w)
	err := openLoop(pub, in, st, rate, start, w.end())
	sent, missing := st.drain()
	o.sent += sent
	o.lost += missing
	if missing > 0 {
		o.fails.addN(missing, "%d of %d open-loop events lost", missing, sent)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := 0; i < sent; i++ {
		if st.arrived[i] != 0 {
			o.openLat.add(st.due[i], float64(st.arrived[i]-st.due[i])/1e6)
		}
		o.lag.add(st.due[i], float64(st.sent[i]-st.due[i])/1e6)
	}
	return err
}

// runClosed keeps closedWindow events in flight over the windows of w.
func (o *outcome) runClosed(pub *broker.Client, recv *receiver, in *inputs, w windowed) error {
	st := newClosedStage(2<<32, int(maxClosedEPS*float64(w.end()-mono())/1e9)+1, w)
	recv.cur.Store(st)
	o.closed = st
	err := closedLoop(pub, in, st, w.end())
	sent, missing := st.drain()
	o.sent += sent
	o.lost += missing
	if missing > 0 {
		o.fails.addN(missing, "%d of %d closed-loop events lost", missing, sent)
	}
	return err
}

// runPublish: stage 1 is the open loop at openRate over the first half of
// span, stage 2 the closed loop over the second half.
func (o *outcome) runPublish(f *fabric, in *inputs, span time.Duration) error {
	pub, recv, err := pubsub(f, in, o.fails)
	if err != nil {
		return err
	}
	defer recv.stop()
	w1 := newWindows(warmup, span/2, numWindows)
	marks, done := cpuMarks(w1)
	err = o.runOpen(pub, recv, in, openRate, w1)
	<-done
	o.cpuMarks, o.cpuOps = marks, o.openLat.counts()
	if err != nil {
		return err
	}
	return o.runClosed(pub, recv, in, newWindows(warmup, span/2, numWindows))
}

// runMixed runs one discover requester beside the open-loop stream at
// mixedRate, on the same windows. The requester pauses mixedThink between
// discoveries so that the pair leaves the host's CPUs headroom: run back to
// back it saturates them, and the interference then follows the host's
// other load more than the fabric's.
func (o *outcome) runMixed(f *fabric, in *inputs, span time.Duration) error {
	pub, recv, err := pubsub(f, in, o.fails)
	if err != nil {
		return err
	}
	defer recv.stop()
	return o.runDiscover(f, in, span, 1, mixedThink, func(w windowed) error {
		return o.runOpen(pub, recv, in, mixedRate, w)
	})
}
