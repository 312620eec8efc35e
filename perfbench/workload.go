package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/uuid"
)

// Load settings. Each is fixed by the benchmark, never by the host.
const (
	warmup       = time.Second          // traffic before the first window, not measured
	numWindows   = 10                   // measurement windows per measured span
	openRate     = 2000.0               // publish stage 1 offered rate, events/s
	mixedRate    = 1000.0               // the publish stream beside discovery in mixed
	mixedThink   = 5 * time.Millisecond // the mixed requester's pause between discoveries
	closedWindow = 128                  // publish stage 2 events in flight (< egressQueueSize 512)
	drainTimeout = 3 * time.Second      // wait for stragglers after a stage
	maxClosedEPS = 60000                // sizing bound for the stage 2 arrival log
	pubTimeout   = 10 * time.Second     // a closed-loop slot not freed by then is a loss
)

// epoch anchors every timestamp the benchmark takes on the monotonic clock.
var epoch = time.Now()

// mono returns nanoseconds since epoch.
func mono() int64 { return int64(time.Since(epoch)) }

// failures counts failed operations and keeps the first few reasons.
type failures struct {
	mu      sync.Mutex
	n       int
	reasons []string
}

func (f *failures) add(format string, args ...any) { f.addN(1, format, args...) }

// addN counts n failures under one reason.
func (f *failures) addN(n int, format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n += n
	if len(f.reasons) < 5 {
		f.reasons = append(f.reasons, fmt.Sprintf(format, args...))
	}
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// discRecord is what a run keeps of one completed Discover call: a few
// fields rather than the Result, so that the log's growth does not shift
// the collector's pacing during the run.
type discRecord struct {
	requester   int
	key         uint64 // the call's trace key
	start, end  int64  // mono ns around the call
	id          uuid.UUID
	timing      core.Breakdown
	pongs       int // pongs received from the target set
	pings       int // pings sent to it
	retransmits int
	minLinks    int // fewest connections any responder advertised
}

func newDiscRecord(idx int, key uint64, start, end int64, res *core.Result) discRecord {
	r := discRecord{requester: idx, key: key, start: start, end: end, id: res.RequestID,
		timing: res.Timing, retransmits: res.Retransmits, minLinks: -1}
	for _, c := range res.TargetSet {
		r.pongs += c.PingCount
	}
	r.pings = len(res.TargetSet) * core.DefaultPingCount
	for _, c := range res.Responses {
		if l := c.Response.Usage.Links; r.minLinks < 0 || l < r.minLinks {
			r.minLinks = l
		}
	}
	return r
}

// discLog collects the discoveries of a run.
type discLog struct {
	mu        sync.Mutex
	recs      []discRecord
	last      *core.Result // the latest successful result
	attempted int
	failed    int
	lat       *series // ms, windowed by start
	done      *rate   // completions, windowed by start
}

// checkDiscovery verifies one discovery: eight distinct responses from live
// fabric brokers, and a selected broker that is one of them.
func (f *fabric) checkDiscovery(res *core.Result, err error) error {
	if err != nil {
		return err
	}
	if len(res.Responses) != fabricBrokers {
		return fmt.Errorf("%d responses, want %d", len(res.Responses), fabricBrokers)
	}
	seen := make(map[string]bool, fabricBrokers)
	for _, c := range res.Responses {
		addr := c.Response.Broker.LogicalAddress
		if seen[addr] {
			return fmt.Errorf("duplicate response from %s", addr)
		}
		if !f.live[addr] {
			return fmt.Errorf("response from unknown broker %q", addr)
		}
		seen[addr] = true
	}
	if sel := res.Selected.LogicalAddress; !seen[sel] || !f.live[sel] {
		return fmt.Errorf("selected %q is not a responding live broker", sel)
	}
	return nil
}

// discoverLoop runs one closed-loop requester until the last window
// closes: Discover, wait think, repeat.
func discoverLoop(f *fabric, r *requester, idx int, w windowed, think time.Duration, log *discLog, fails *failures) {
	for n := uint64(0); mono() < w.end(); n++ {
		if n > 0 && think > 0 {
			time.Sleep(think)
		}
		key := uint64(idx+1)<<40 | n
		if r.node != nil {
			r.node.key.Store(key)
		}
		s0 := mono()
		res, err := r.d.Discover()
		s1 := mono()
		bad := f.checkDiscovery(res, err)
		if bad != nil {
			fails.add("discovery by %s: %v", r.name, bad)
		}
		log.mu.Lock()
		log.attempted++
		if bad != nil {
			log.failed++
		}
		if err == nil {
			log.recs = append(log.recs, newDiscRecord(idx, key, s0, s1, res))
			log.last = res
			log.lat.add(s0, float64(s1-s0)/1e6)
			log.done.add(s0)
		}
		log.mu.Unlock()
	}
	if r.node != nil {
		r.node.key.Store(0)
	}
}

// stage is the log of one publish stage: events seq lo..lo+size-1. An
// open-loop stage keeps each event's times; a closed-loop stage only
// counts arrivals.
type stage struct {
	lo   uint64
	size int
	due  []int64 // open loop: mono ns the event was due to leave
	sent []int64 // open loop: mono ns the Publish call started
	n    atomic.Int64

	mu       sync.Mutex
	seen     []uint64 // arrival bitset, for exactly-once
	arrived  []int64  // open loop: mono ns the subscriber received it
	arrivals *rate    // closed loop: arrivals per window
	received int
	sem      chan struct{} // closed loop: one slot per event in flight
}

func newOpenStage(lo uint64, size int) *stage {
	return &stage{lo: lo, size: size, due: make([]int64, size), sent: make([]int64, size),
		seen: make([]uint64, (size+63)/64), arrived: make([]int64, size)}
}

func newClosedStage(lo uint64, size int, w windowed) *stage {
	return &stage{lo: lo, size: size, seen: make([]uint64, (size+63)/64),
		arrivals: newRate(w), sem: make(chan struct{}, closedWindow)}
}

// receiver drains the subscriber and checks every delivery against the
// generated inputs.
type receiver struct {
	in    *inputs
	sub   *broker.Client
	cur   atomic.Pointer[stage]
	fails *failures
	done  chan struct{}
}

func startReceiver(in *inputs, sub *broker.Client, fails *failures) *receiver {
	r := &receiver{in: in, sub: sub, fails: fails, done: make(chan struct{})}
	go r.run()
	return r
}

func (r *receiver) run() {
	defer close(r.done)
	for {
		ev, err := r.sub.Next(0)
		if err != nil {
			if !errors.Is(err, broker.ErrClientClosed) {
				r.fails.add("subscriber: %v", err)
			}
			return
		}
		at := mono()
		seq, ok := r.in.checkPayload(ev.Payload)
		if !ok || ev.Topic != r.in.topic(seq) {
			r.fails.add("event on %q: corrupt payload", ev.Topic)
			continue
		}
		st := r.cur.Load()
		if st == nil || seq < st.lo || seq-st.lo >= uint64(st.size) {
			r.fails.add("event %d outside the current stage", seq)
			continue
		}
		i := seq - st.lo
		st.mu.Lock()
		if st.seen[i/64]&(1<<(i%64)) != 0 {
			st.mu.Unlock()
			r.fails.add("event %d delivered twice", seq)
			continue
		}
		st.seen[i/64] |= 1 << (i % 64)
		st.received++
		if st.arrived != nil {
			st.arrived[i] = at
		}
		if st.arrivals != nil {
			st.arrivals.add(at)
		}
		st.mu.Unlock()
		if st.sem != nil {
			select {
			case <-st.sem:
			default:
			}
		}
	}
}

// stop closes the subscriber and waits until the receiver has handled the
// last delivery, so the stages can be read without it.
func (r *receiver) stop() {
	r.sub.Close()
	<-r.done
}

// drain waits until every published event of st has arrived or
// drainTimeout passes; it returns how many were sent and how many are
// missing.
func (st *stage) drain() (sent, missing int) {
	sent = int(st.n.Load())
	deadline := time.Now().Add(drainTimeout)
	for {
		st.mu.Lock()
		got := st.received
		st.mu.Unlock()
		if got >= sent || time.Now().After(deadline) {
			return sent, sent - got
		}
		time.Sleep(time.Millisecond)
	}
}

// openLoop publishes at a fixed rate from start until end. Event i is due at
// start + i/rate whatever happened before it; its latency is measured from
// that due time, so a stall is charged to every event it delays.
func openLoop(pub *broker.Client, in *inputs, st *stage, rate float64, start, end int64) error {
	interval := float64(time.Second) / rate
	buf := make([]byte, payloadSize)
	for i := 0; i < st.size; i++ {
		due := start + int64(float64(i)*interval)
		if due >= end {
			break
		}
		if d := due - mono(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		seq := st.lo + uint64(i)
		in.fillPayload(buf, seq)
		st.due[i] = due
		st.sent[i] = mono()
		if err := pub.Publish(in.topic(seq), buf); err != nil {
			return err
		}
		st.n.Store(int64(i + 1))
	}
	return nil
}

// closedLoop keeps closedWindow events in flight until end: a new event
// leaves only when the subscriber has received an earlier one.
func closedLoop(pub *broker.Client, in *inputs, st *stage, end int64) error {
	buf := make([]byte, payloadSize)
	for i := 0; i < st.size; i++ {
		if mono() >= end {
			break
		}
		select {
		case st.sem <- struct{}{}:
		default:
			select {
			case st.sem <- struct{}{}:
			case <-time.After(pubTimeout):
				return fmt.Errorf("no delivery for %v with %d events in flight", pubTimeout, closedWindow)
			}
		}
		seq := st.lo + uint64(i)
		in.fillPayload(buf, seq)
		if err := pub.Publish(in.topic(seq), buf); err != nil {
			return err
		}
		st.n.Store(int64(i + 1))
	}
	return nil
}

// cpuMarks samples process CPU time at every window boundary of w; the
// returned slice has w.n+1 entries once done is closed.
func cpuMarks(w windowed) (marks []time.Duration, done chan struct{}) {
	marks = make([]time.Duration, w.n+1)
	done = make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i <= w.n; i++ {
			time.Sleep(time.Duration(w.at(i) - mono()))
			marks[i] = processCPU()
		}
	}()
	return marks, done
}

// perWindowCPU divides each window's CPU time (µs) by its operation count
// and returns the median over windows.
func perWindowCPU(marks []time.Duration, ops []int) float64 {
	var vals []float64
	for i := range ops {
		if ops[i] > 0 {
			vals = append(vals, float64(marks[i+1]-marks[i])/1e3/float64(ops[i]))
		}
	}
	return median(vals)
}
