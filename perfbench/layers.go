package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"narada/internal/core"
	"narada/internal/dedup"
	"narada/internal/event"
	"narada/internal/metrics"
	"narada/internal/obs"
	"narada/internal/topics"
	"narada/internal/uuid"
)

// budgetTolerance is how far, as a share of the end-to-end p50, the
// attributed self times of a blocking path may sum away from that p50.
const budgetTolerance = 0.10

// tracesDir receives the spans of every traced run, at most
// maxWrittenSpans of them.
const (
	tracesDir       = ".bench_build/traces"
	maxWrittenSpans = 100_000
)

// tracedRun runs the workload untraced and then traced, each for half of
// span, and reports the per-layer metrics, the latency budget and the
// tracing overhead (the traced run's p50 against the untraced one's).
func tracedRun(rep *report, in *inputs, workload string, span time.Duration) ([]*outcome, error) {
	f, err := startFabric(in.seed, nil)
	if err != nil {
		return nil, err
	}
	ref, err := runWorkload(f, in, workload, span/2)
	f.close()
	if err != nil {
		return []*outcome{ref}, err
	}
	tr, err := newTracer()
	if err != nil {
		return []*outcome{ref}, err
	}
	if f, err = startFabric(in.seed, tr); err != nil {
		return []*outcome{ref}, err
	}
	before := scrape(f.regs)
	o, err := runWorkload(f, in, workload, span/2)
	after := scrape(f.regs)
	f.close()
	if err != nil {
		return []*outcome{ref, o}, err
	}
	a := newAnalysis(tr, in, o)
	a.layers(rep, before, after)
	a.budgets(rep)
	a.overhead(rep, ref)
	rep.print(fmt.Sprintf("per-layer (%s, traced)", workload))
	if err := a.writeSpans(filepath.Join(tracesDir, fmt.Sprintf("%s-seed%d.jsonl", workload, in.seed))); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	return []*outcome{ref, o}, nil
}

// analysis turns a traced run's spans, counters and logs into per-layer
// figures.
type analysis struct {
	tr      *tracer
	in      *inputs
	o       *outcome
	byKey   map[uint64][]span
	brokers []uint16 // node index of b0..b7
	pub     int      // node index of the publisher, -1 if none
	sub     int      // node index of the subscriber, -1 if none
	reqs    []uint16 // node index of each requester
}

func newAnalysis(tr *tracer, in *inputs, o *outcome) *analysis {
	a := &analysis{tr: tr, in: in, o: o, byKey: make(map[uint64][]span), pub: -1, sub: -1}
	for _, s := range tr.spans {
		a.byKey[s.key] = append(a.byKey[s.key], s)
	}
	for i := 0; i < fabricBrokers; i++ {
		idx, _ := tr.nodeIndex(fmt.Sprintf("b%d", i))
		a.brokers = append(a.brokers, idx)
	}
	if idx, ok := tr.nodeIndex(in.publisher); ok {
		a.pub = int(idx)
	}
	if idx, ok := tr.nodeIndex(in.subscriber); ok {
		a.sub = int(idx)
	}
	for _, name := range in.requesters {
		idx, _ := tr.nodeIndex(name)
		a.reqs = append(a.reqs, idx)
	}
	return a
}

// requesterSpans returns the spans the requester of r recorded during it.
func (a *analysis) requesterSpans(r discRecord) []span {
	var out []span
	for _, s := range a.byKey[r.key] {
		if s.node == a.reqs[r.requester] {
			out = append(out, s)
		}
	}
	return out
}

// discRecs returns the traced discoveries that started inside the windows.
func (a *analysis) discRecs() []discRecord {
	if a.o.disc == nil {
		return nil
	}
	var out []discRecord
	for _, r := range a.o.disc.recs {
		if a.o.disc.lat.w.index(r.start) >= 0 {
			out = append(out, r)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layers reports every per-layer metric. A layer the workload leaves idle
// reports 0 with n=0.
func (a *analysis) layers(rep *report, before, after scrapeSnap) {
	h := &a.tr.hists
	delta := func(name string, match ...string) float64 {
		return after.sum(name, match...) - before.sum(name, match...)
	}

	// core, from the returned Result.Timing and target sets.
	recs := a.discRecs()
	var issue, collect, ping, shortlist, decide []float64
	pongs, pings, retrans := 0, 0, 0
	for _, r := range recs {
		t := &r.timing
		issue = append(issue, ms(t.Get(core.PhaseRequestIssue)))
		collect = append(collect, ms(t.Get(core.PhaseWaitResponses)))
		ping = append(ping, ms(t.Get(core.PhasePing)))
		shortlist = append(shortlist, ms(t.Get(core.PhaseShortlist))*1e3)
		decide = append(decide, ms(t.Get(core.PhaseDecide))*1e3)
		pongs += r.pongs
		pings += r.pings
		retrans += r.retransmits
	}
	n := len(recs)
	rep.metric("core.issue_p50_ms", quantile(issue, 0.5), "ms", n)
	rep.metric("core.issue_p99_ms", quantile(issue, 0.99), "ms", n)
	rep.metric("core.collect_p50_ms", quantile(collect, 0.5), "ms", n)
	rep.metric("core.collect_p99_ms", quantile(collect, 0.99), "ms", n)
	rep.metric("core.ping_p50_ms", quantile(ping, 0.5), "ms", n)
	rep.metric("core.ping_p99_ms", quantile(ping, 0.99), "ms", n)
	rep.metric("core.shortlist_p50_us", quantile(shortlist, 0.5), "us", n)
	rep.metric("core.decide_p50_us", quantile(decide, 0.5), "us", n)
	rep.metric("core.pongs_per_ping", safeDiv(float64(pongs), float64(pings)), "ratio", pings)
	rep.metric("core.retransmits", float64(retrans), "count", n)

	// bdn: request sent -> ack received, on the requester's connection.
	var acks []float64
	for _, r := range recs {
		var sent, acked int64
		for _, s := range a.requesterSpans(r) {
			switch {
			case s.kind == kSend && s.ftype == event.TypeDiscoveryRequest && sent == 0:
				sent = s.t0
			case s.kind == kRecv && s.ftype == event.TypeDiscoveryAck && acked == 0:
				acked = s.t1
			}
		}
		if sent != 0 && acked >= sent {
			acks = append(acks, float64(acked-sent)/1e6)
		}
	}
	rep.metric("bdn.ack_p50_ms", quantile(acks, 0.5), "ms", len(acks))
	rep.metric("bdn.ack_p99_ms", quantile(acks, 0.99), "ms", len(acks))
	injects := delta("narada_bdn_injections_total")
	attempted := 0
	if a.o.disc != nil {
		attempted = a.o.disc.attempted
	}
	rep.metric("bdn.injections_per_discovery", safeDiv(injects, float64(attempted)), "ratio", attempted)

	// metrics: every Sampler.Sample call the brokers made.
	samples := int(h[hSample].count.Load())
	rep.metric("metrics.sample_p50_us", h[hSample].quantile(0.5)/1e3, "us", samples)
	rep.metric("metrics.sample_p99_us", h[hSample].quantile(0.99)/1e3, "us", samples)

	// broker: ingress Recv -> next-link Send of the same event, per broker.
	hops := a.hops()
	rep.metric("broker.hop_p50_us", quantile(hops, 0.5), "us", len(hops))
	rep.metric("broker.hop_p99_us", quantile(hops, 0.99), "us", len(hops))
	dups := delta("narada_broker_discovery_requests_total", `outcome="duplicate"`)
	reqs := delta("narada_broker_frames_total", `kind="discovery"`)
	rep.metric("broker.discovery_dup_ratio", safeDiv(dups, reqs), "ratio", int(reqs))
	flushes := delta("narada_broker_egress_frames_per_flush_count")
	rep.metric("broker.egress_frames_per_flush",
		safeDiv(delta("narada_broker_egress_frames_per_flush_sum"), flushes), "count", int(flushes))
	rep.metric("broker.egress_dropped", delta("narada_broker_egress_dropped_total"), "count", 1)

	// transport: every call through the decorators.
	count := func(i int) int { return int(h[i].count.Load()) }
	rep.metric("transport.dial_p50_ms", h[hDial].quantile(0.5)/1e6, "ms", count(hDial))
	rep.metric("transport.tcp_send_p50_us", h[hTCPSend].quantile(0.5)/1e3, "us", count(hTCPSend))
	rep.metric("transport.batch_send_p50_us", h[hBatchSend].quantile(0.5)/1e3, "us", count(hBatchSend))
	rep.metric("transport.frames_per_batch", h[hBatchFrames].mean(), "count", count(hBatchFrames))
	rep.metric("transport.udp_send_p50_us", h[hUDPSend].quantile(0.5)/1e3, "us", count(hUDPSend))
	rep.metric("transport.recv_wait_p50_ms", h[hRecvWait].quantile(0.5)/1e6, "ms", count(hRecvWait))

	// Isolated passes over the workload's own captured inputs.
	a.isolated(rep)

	hits := delta("narada_dedup_hits_total")
	adds := delta("narada_dedup_adds_total")
	rep.metric("dedup.hit_ratio", safeDiv(hits, hits+adds), "ratio", int(hits+adds))

	if a.o.lag != nil {
		rep.metric("loadgen.lag_p50_ms", a.o.lag.windowQuantile(0.5), "ms", a.o.lag.count())
		rep.metric("loadgen.lag_p99_ms", a.o.lag.windowQuantile(0.99), "ms", a.o.lag.count())
	} else {
		rep.metric("loadgen.lag_p50_ms", 0, "ms", 0)
		rep.metric("loadgen.lag_p99_ms", 0, "ms", 0)
	}
	rep.line("trace.spans", float64(len(a.tr.spans)), "count", len(a.tr.spans)+a.tr.dropped)
	fewest := -1
	for _, r := range recs {
		if fewest < 0 || r.minLinks < fewest {
			fewest = r.minLinks
		}
	}
	rep.line("metrics.advertised_links_min", float64(fewest), "count", n)
}

// hops returns, in µs, each broker's ingress Recv -> forwarding Send time
// for every traced publish event and discovery request.
func (a *analysis) hops() []float64 {
	var out []float64
	for _, spans := range a.byKey {
		for _, b := range a.brokers {
			var send int64 = math.MaxInt64
			for _, s := range spans {
				if s.node == b && (s.kind == kSend || s.kind == kBatch) && routed(s.ftype) && s.t0 < send {
					send = s.t0
				}
			}
			var recv int64
			for _, s := range spans {
				if s.node == b && s.kind == kRecv && routed(s.ftype) && s.t1 <= send && s.t1 > recv {
					recv = s.t1
				}
			}
			if send != math.MaxInt64 && recv != 0 {
				out = append(out, float64(send-recv)/1e3)
			}
		}
	}
	return out
}

// routed reports whether brokers forward frames of type t.
func routed(t event.Type) bool {
	return t == event.TypePublish || t == event.TypeDiscoveryRequest
}

// isolated runs the single-layer passes: each calls one layer's public
// functions on inputs captured from (or generated for) this workload.
func (a *analysis) isolated(rep *report) {
	var frames [][]byte
	for _, t := range []event.Type{event.TypePublish, event.TypeDiscoveryRequest, event.TypeDiscoveryResponse} {
		frames = append(frames, a.tr.captured[t]...)
	}
	var decNs, decAllocs, encNs, encAllocs float64
	if len(frames) > 0 {
		evs := make([]*event.Event, 0, len(frames))
		for _, f := range frames {
			if ev, err := event.Decode(f); err == nil {
				evs = append(evs, ev)
			}
		}
		i := 0
		decNs, decAllocs = perOp(func() {
			_, _ = event.Decode(frames[i%len(frames)])
			i++
		})
		encNs, encAllocs = perOp(func() {
			event.Encode(evs[i%len(evs)])
			i++
		})
	}
	rep.metric("event.decode_ns", decNs, "ns", len(frames))
	rep.metric("event.decode_allocs", decAllocs, "count", len(frames))
	rep.metric("event.encode_ns", encNs, "ns", len(frames))
	rep.metric("event.encode_allocs", encAllocs, "count", len(frames))

	var matchNs float64
	if a.o.open != nil {
		tbl := topics.NewTable()
		for _, p := range a.in.patterns {
			if err := tbl.Subscribe(a.in.subscriber, p); err != nil {
				panic(err) // the generator only emits valid patterns
			}
		}
		matched := 0
		seq := uint64(0)
		matchNs, _ = perOp(func() {
			tbl.MatchEach(a.in.topic(seq), func(string) { matched++ })
			seq++
		})
	}
	rep.metric("topics.match_ns", matchNs, "ns", len(a.in.patterns))

	// dedup: distinct IDs, the case every publish hop and first request
	// copy takes, through a cache sized like a broker's event cache.
	cache := dedup.New(4 * dedup.DefaultCapacity)
	ids := make([]uuid.UUID, 1<<14)
	for i := range ids {
		x := mix(uint64(a.in.seed) ^ uint64(i)<<20)
		binary.LittleEndian.PutUint64(ids[i][:8], x)
		binary.LittleEndian.PutUint64(ids[i][8:], mix(x))
	}
	j := 0
	seenNs, _ := perOp(func() {
		cache.Seen(ids[j%len(ids)])
		j++
	})
	rep.metric("dedup.seen_ns", seenNs, "ns", j)

	var slNs, slAllocs, sampleNs float64
	recs := a.discRecs()
	if len(recs) > 0 {
		resp := a.o.disc.last.Responses
		cfg := core.DefaultSelectionConfig()
		slNs, slAllocs = perOp(func() { core.Shortlist(resp, cfg) })
		s := metrics.NewRuntimeSampler()
		sampleNs, _ = perOp(func() { s.Sample() })
	}
	rep.metric("core.shortlist_ns", slNs, "ns", len(recs))
	rep.metric("core.shortlist_allocs", slAllocs, "count", len(recs))
	rep.metric("metrics.sample_ns", sampleNs, "ns", len(recs))
}

// perOp times fn over about 50 ms and returns ns and heap allocations per
// call.
func perOp(fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n := 0
	for time.Since(t0) < 50*time.Millisecond {
		for i := 0; i < 64; i++ {
			fn()
		}
		n += 64
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// budgetRow is one step of a blocking path with the mean time the
// median-band units spent in it.
type budgetRow struct {
	layer, step string
	ms          float64
}

// budget is a path's decomposition of the end-to-end p50: each unit's path
// is split into contiguous steps attributed to layers, and the steps are
// averaged over the units whose end-to-end time lies within the 45th-55th
// percentile band.
type budget struct {
	path  string
	p50   float64 // ms, over the traced units
	units int     // traced units with a complete path
	band  int
	rows  []budgetRow
}

// unattributed is the part of the p50 the rows do not account for.
func (b *budget) unattributed() float64 {
	sum := 0.0
	for _, r := range b.rows {
		sum += r.ms
	}
	return b.p50 - sum
}

// averaged builds a budget from per-unit totals and step vectors.
func averaged(path string, names []budgetRow, totals []float64, steps [][]float64) *budget {
	b := &budget{path: path, units: len(totals)}
	if len(totals) == 0 {
		return b
	}
	sorted := append([]float64(nil), totals...)
	b.p50 = quantile(sorted, 0.5)
	lo, hi := quantile(sorted, 0.45), quantile(sorted, 0.55)
	sums := make([]float64, len(names))
	for i, t := range totals {
		if t < lo || t > hi {
			continue
		}
		b.band++
		for j, v := range steps[i] {
			sums[j] += v
		}
	}
	for j, r := range names {
		r.ms = sums[j] / float64(b.band)
		b.rows = append(b.rows, r)
	}
	return b
}

// discoverBudget splits each traced discovery into its five phases, laid
// end to end from Result.Timing starting when the response endpoint is
// open, and splits each phase into the requester's transport calls inside
// it (their layer) and the phase's self time (core). The Discover call's
// time outside the phases is left unattributed.
func (a *analysis) discoverBudget() *budget {
	names := []budgetRow{
		{"transport", "issue: dial BDN", 0},
		{"transport", "issue: send request", 0},
		{"bdn", "issue: wait for ack", 0},
		{"core", "issue: self", 0},
		{"bdn+broker", "collect: wait for responses", 0},
		{"core", "collect: self", 0},
		{"core", "shortlist", 0},
		{"transport", "ping: send pings", 0},
		{"broker", "ping: wait for pongs", 0},
		{"core", "ping: self", 0},
		{"core", "decide", 0},
	}
	var totals []float64
	var steps [][]float64
	for _, r := range a.discRecs() {
		spans := a.requesterSpans(r)
		anchor := int64(0)
		for _, s := range spans {
			if s.kind == kListenPacket {
				anchor = s.t1
			}
		}
		if anchor == 0 {
			continue
		}
		v := make([]float64, len(names))
		t := &r.timing
		at := anchor
		phase := func(p core.Phase) (int64, int64) {
			a0 := at
			at += int64(t.Get(p))
			return a0, at
		}
		cover := func(lo, hi int64, keep func(span) bool) float64 {
			c := int64(0)
			for _, s := range spans {
				if keep(s) {
					c += max(0, min(s.t1, hi)-max(s.t0, lo))
				}
			}
			return float64(c) / 1e6
		}
		is := func(k spanKind) func(span) bool { return func(s span) bool { return s.kind == k } }
		lo, hi := phase(core.PhaseRequestIssue)
		v[0] = cover(lo, hi, is(kDial))
		v[1] = cover(lo, hi, is(kSend))
		v[2] = cover(lo, hi, is(kRecv))
		v[3] = float64(hi-lo)/1e6 - v[0] - v[1] - v[2]
		lo, hi = phase(core.PhaseWaitResponses)
		v[4] = cover(lo, hi, is(kUDPRecv))
		v[5] = float64(hi-lo)/1e6 - v[4]
		lo, hi = phase(core.PhaseShortlist)
		v[6] = float64(hi-lo) / 1e6
		lo, hi = phase(core.PhasePing)
		v[7] = cover(lo, hi, is(kUDPSend))
		v[8] = cover(lo, hi, is(kUDPRecv))
		v[9] = float64(hi-lo)/1e6 - v[7] - v[8]
		lo, hi = phase(core.PhaseDecide)
		v[10] = float64(hi-lo) / 1e6
		totals = append(totals, float64(r.end-r.start)/1e6)
		steps = append(steps, v)
	}
	return averaged("discover: issue + collect + shortlist + ping + decide", names, totals, steps)
}

// publishBudget splits each traced open-loop event's latency, from its due
// time to the subscriber's Next returning it, into contiguous steps: the
// generator's lateness, the publisher's encode, each broker's hop (ingress
// Recv to forwarding Send), each transport leg (Send start to the next
// Recv's return) and the subscriber's decode and hand-off.
func (a *analysis) publishBudget() *budget {
	names := []budgetRow{
		{"loadgen", "generator lag", 0},
		{"event", "publisher: event encode", 0},
		{"transport", "publisher -> b0", 0},
		{"broker", "8 broker hops", 0},
		{"transport", "7 broker links", 0},
		{"transport", "final egress write b7 -> subscriber", 0},
		{"client", "subscriber: decode + hand-off", 0},
	}
	st := a.o.open
	if st == nil || a.pub < 0 || a.sub < 0 {
		return averaged("publish", names, nil, nil)
	}
	var totals []float64
	var steps [][]float64
	sent := int(st.n.Load())
	for i := 0; i < sent; i++ {
		seq := st.lo + uint64(i)
		if seq%sampleEvery != 0 || st.arrived[i] == 0 || a.o.openLat.w.index(st.due[i]) < 0 {
			continue
		}
		spans := a.byKey[pubKey(seq)]
		find := func(node int, kinds ...spanKind) (span, bool) {
			for _, s := range spans {
				if int(s.node) == node && s.ftype == event.TypePublish {
					for _, k := range kinds {
						if s.kind == k {
							return s, true
						}
					}
				}
			}
			return span{}, false
		}
		pubSend, ok := find(a.pub, kSend)
		if !ok {
			continue
		}
		subRecv, ok := find(a.sub, kRecv)
		if !ok {
			continue
		}
		v := make([]float64, len(names))
		v[0] = float64(st.sent[i]-st.due[i]) / 1e6
		v[1] = float64(pubSend.t0-st.sent[i]) / 1e6
		prev := pubSend.t0
		complete := true
		for b, node := range a.brokers {
			recv, ok1 := find(int(node), kRecv)
			send, ok2 := find(int(node), kSend, kBatch)
			if !ok1 || !ok2 {
				complete = false
				break
			}
			leg := float64(recv.t1-prev) / 1e6
			if b == 0 {
				v[2] = leg
			} else {
				v[4] += leg
			}
			v[3] += float64(send.t0-recv.t1) / 1e6
			prev = send.t0
		}
		if !complete {
			continue
		}
		v[5] = float64(subRecv.t1-prev) / 1e6
		v[6] = float64(st.arrived[i]-subRecv.t1) / 1e6
		totals = append(totals, float64(st.arrived[i]-st.due[i])/1e6)
		steps = append(steps, v)
	}
	return averaged("publish: lag + encode + 8 hops + 8 legs + delivery", names, totals, steps)
}

// budgets prints the budget of each path the workload drives and reports
// the unattributed share of its primary path.
func (a *analysis) budgets(rep *report) {
	var primary *budget
	if a.o.disc != nil {
		b := a.discoverBudget()
		b.print()
		primary = b
	}
	if a.o.open != nil {
		b := a.publishBudget()
		b.print()
		primary = b
	}
	share := 0.0
	if primary != nil && primary.p50 > 0 {
		share = math.Abs(primary.unattributed()) / primary.p50
	}
	rep.metric("budget.unattributed_ratio", share, "ratio", 1)
}

func (b *budget) print() {
	fmt.Printf("budget %s\n", b.path)
	fmt.Printf("  traced p50 %.4f ms over %d units; steps averaged over the %d in the 45-55th percentile band\n",
		b.p50, b.units, b.band)
	for _, r := range b.rows {
		fmt.Printf("  %-11s %-38s %9.4f ms %6.1f%%\n", r.layer, r.step, r.ms, 100*safeDiv(r.ms, b.p50))
	}
	u := b.unattributed()
	verdict := "within"
	if math.Abs(u) > budgetTolerance*b.p50 {
		verdict = "OUTSIDE"
	}
	fmt.Printf("  %-11s %-38s %9.4f ms %6.1f%%  (%s the %.0f%% tolerance)\n",
		"unattributed", "", u, 100*safeDiv(u, b.p50), verdict, 100*budgetTolerance)
}

// overhead reports how much slower the traced run's primary latency was
// than the untraced run's.
func (a *analysis) overhead(rep *report, ref *outcome) {
	lat := func(o *outcome) *series {
		if o.workload == "discover" {
			return o.disc.lat
		}
		return o.openLat
	}
	base, traced := lat(ref).windowQuantile(0.5), lat(a.o).windowQuantile(0.5)
	fmt.Printf("tracing overhead: p50 %.4f ms untraced, %.4f ms traced\n", base, traced)
	rep.metric("trace.overhead_ratio", safeDiv(traced-base, base), "ratio", lat(a.o).count())
}

// scrapeSnap is a scrape of every node's obs.Registry: Prometheus series
// text (name plus labels) -> value, summed over nodes.
type scrapeSnap map[string]float64

func scrape(regs []*obs.Registry) scrapeSnap {
	snap := make(scrapeSnap)
	for _, reg := range regs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			continue
		}
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			line := sc.Text()
			i := strings.LastIndexByte(line, ' ')
			if i < 0 || strings.HasPrefix(line, "#") {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				snap[line[:i]] += v
			}
		}
	}
	return snap
}

// sum adds the series of metric name whose labels contain every match.
func (s scrapeSnap) sum(name string, match ...string) float64 {
	total := 0.0
	for series, v := range s {
		base, labels, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, m := range match {
			ok = ok && strings.Contains(labels, m)
		}
		if ok {
			total += v
		}
	}
	return total
}

// spanJSON is one written span. Spans of one discovery share its request
// UUID as trace; spans of one publish event share "event-<seq>".
type spanJSON struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Node   string `json:"node,omitempty"`
	Frame  string `json:"frame,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans writes the span buffer as JSON lines, with the discovery and
// core phase spans laid out from each Result, up to maxWrittenSpans lines.
func (a *analysis) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	lines := 0
	put := func(s spanJSON) {
		if lines < maxWrittenSpans {
			_ = enc.Encode(s)
			lines++
		}
	}
	traceIDs := make(map[uint64]string)
	if a.o.disc != nil {
		for _, r := range a.o.disc.recs {
			id := r.id.String()
			traceIDs[r.key] = id
			put(spanJSON{Trace: id, Name: "discover", Start: r.start, End: r.end})
			at := r.start
			for _, s := range a.requesterSpans(r) {
				if s.kind == kListenPacket {
					at = s.t1
				}
			}
			for _, p := range core.Phases() {
				d := int64(r.timing.Get(p))
				put(spanJSON{Trace: id, Name: "core." + p.String(), Parent: "discover", Start: at, End: at + d})
				at += d
			}
		}
	}
	for _, s := range a.tr.spans {
		id, ok := traceIDs[s.key]
		if !ok {
			if s.key&(1<<63) == 0 {
				continue // a discovery that did not complete
			}
			id = fmt.Sprintf("event-%d", s.key&^(1<<63))
		}
		var frame string
		if s.ftype != 0 {
			frame = s.ftype.String()
		}
		put(spanJSON{Trace: id, Name: kindNames[s.kind], Node: a.tr.names[s.node],
			Frame: frame, Start: s.t0, End: s.t1})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
