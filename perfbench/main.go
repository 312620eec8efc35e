// Command perfbench is the repository's end-to-end benchmark. It boots an
// in-process fabric over real 127.0.0.1 TCP/UDP sockets (one BDN, eight
// brokers registered with it and linked in a chain), drives it with a
// seeded workload, checks every output, and prints every metric by name
// with its unit and sample count. The last line of standard output is a
// JSON summary.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload discover|publish|mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced, each for half of S, and reports
// the per-layer metrics, the latency budget and the tracing overhead.
// See perfbench/README.md for the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupBoots is how many times a run boots the fabric; setup_s is the
// median boot time and the last fabric carries the workload.
const setupBoots = 11

// resultsDir receives a JSON record of every run, with the host fingerprint.
const resultsDir = ".bench_build/results"

func main() {
	workload := flag.String("workload", "", "workload: discover | publish | mixed")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	switch *workload {
	case "discover", "publish", "mixed":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want discover, publish or mixed)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	os.Exit(run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1))
}

// metricValue is one entry of the summary's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed as the last line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects the metrics of a run: every one is printed with its unit
// and sample count; those added with metric also go into the summary.
type report struct {
	metrics map[string]metricValue
	samples map[string]int
	lines   []string
}

func newReport() *report {
	return &report{metrics: make(map[string]metricValue), samples: make(map[string]int)}
}

// metric records a summary metric.
func (r *report) metric(name string, v float64, unit string, n int) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	r.samples[name] = n
	r.line(name, v, unit, n)
}

// line records a printed-only metric.
func (r *report) line(name string, v float64, unit string, n int) {
	r.lines = append(r.lines, fmt.Sprintf("  %-34s %14.6g %-6s n=%d", name, v, unit, n))
}

func (r *report) print(title string) {
	fmt.Println(title)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	r.lines = nil
}

func run(workload string, seed int64, span time.Duration, traced bool) int {
	in := makeInputs(seed)
	fp := hostFingerprint()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v\n", workload, seed, span.Seconds(), traced)
	fmt.Printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s source=%s\n",
		fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Source)

	rep := newReport()
	var outs []*outcome
	var err error
	steal0, total0 := hostSteal()
	if traced {
		outs, err = tracedRun(rep, in, workload, span)
	} else {
		var o *outcome
		o, err = untracedRun(rep, in, workload, span)
		outs = append(outs, o)
	}
	steal1, total1 := hostSteal()
	fp.StealPct = 100 * safeDiv(float64(steal1-steal0), float64(total1-total0))
	fmt.Printf("host steal during the run: %.2f%% of host CPU time\n", fp.StealPct)
	sum := summary{Metrics: rep.metrics}
	for _, o := range outs {
		if o == nil {
			continue
		}
		sum.Attempted += o.attempted()
		sum.Failed += o.fails.count()
		for _, reason := range o.fails.reasons {
			fmt.Println("check failed:", reason)
		}
	}
	if err != nil {
		fmt.Println("error:", err)
		sum.Failed++
	}
	sum.Correct = err == nil && sum.Failed == 0
	if sum.Attempted == 0 {
		sum.Attempted = 1
		sum.Correct = false
	}
	writeRecord(workload, seed, traced, fp, rep, sum)
	line, _ := json.Marshal(sum)
	fmt.Println(string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// untracedRun boots the fabric setupBoots times, runs the workload on the
// last one and reports the end-to-end metrics.
func untracedRun(rep *report, in *inputs, workload string, span time.Duration) (*outcome, error) {
	var boots []float64
	var f *fabric
	for i := 0; i < setupBoots; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = startFabric(in.seed, nil); err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(t0).Seconds())
	}
	o, err := runWorkload(f, in, workload, span)
	mem := peakRSSMB()
	f.close()
	if err != nil {
		return o, err
	}
	endToEnd(rep, o, boots, mem)
	return o, nil
}

// attempted counts the operations a run attempted.
func (o *outcome) attempted() int {
	n := o.sent
	if o.disc != nil {
		n += o.disc.attempted
	}
	return n
}

// endToEnd reports the summary metrics. Their meaning per workload is the
// workload's primary operation (see README.md):
//
//	ops_per_s        discover: discoveries/s; publish: stage 2 capacity, events/s; mixed: discoveries/s
//	latency_p50/p90  discover: Discover() latency; publish, mixed: open-loop event latency
//	cpu_us_per_op    discover: per discovery; publish: per stage 1 event; mixed: per discovery or event
func endToEnd(rep *report, o *outcome, boots []float64, mem float64) {
	rep.metric("setup_s", median(boots), "s", len(boots))
	var lat *series
	var done *rate
	switch o.workload {
	case "discover":
		lat, done = o.disc.lat, o.disc.done
	case "publish":
		lat, done = o.openLat, o.closed.arrivals
	case "mixed":
		lat, done = o.openLat, o.disc.done
	}
	rep.metric("ops_per_s", done.perSecond(), "1/s", done.count())
	rep.metric("latency_p50_ms", lat.windowQuantile(0.5), "ms", lat.count())
	rep.metric("latency_p90_ms", lat.windowQuantile(0.9), "ms", lat.count())
	ops := 0
	for _, n := range o.cpuOps {
		ops += n
	}
	rep.metric("cpu_us_per_op", perWindowCPU(o.cpuMarks, o.cpuOps), "us", ops)
	rep.metric("mem_peak_mb", mem, "MB", 1)
	rep.print(fmt.Sprintf("end-to-end (%s; medians over %d windows)", o.workload, numWindows))
	named(rep, o)
	rep.print("named metrics")
}

// named reports the workload's metrics under their specific names.
func named(rep *report, o *outcome) {
	if d := o.disc; d != nil {
		rep.line("discover_per_s", d.done.perSecond(), "1/s", d.done.count())
		rep.line("discover_p50_ms", d.lat.windowQuantile(0.5), "ms", d.lat.count())
		rep.line("discover_p99_ms", d.lat.windowQuantile(0.99), "ms", d.lat.count())
		rep.line("discover_fail_ratio", safeDiv(float64(d.failed), float64(d.attempted)), "ratio", d.attempted)
		if o.workload == "discover" {
			rep.line("cpu_us_per_discovery", perWindowCPU(o.cpuMarks, o.cpuOps), "us", d.lat.count())
		}
	}
	if o.open != nil {
		rep.line("publish_p50_ms", o.openLat.windowQuantile(0.5), "ms", o.openLat.count())
		rep.line("publish_p99_ms", o.openLat.windowQuantile(0.99), "ms", o.openLat.count())
		rep.line("publish_loss_ratio", safeDiv(float64(o.lost)+float64(o.egressDropped), float64(o.sent)), "ratio", o.sent)
		rep.line("loadgen.lag_p50_ms", o.lag.windowQuantile(0.5), "ms", o.lag.count())
		rep.line("loadgen.lag_p99_ms", o.lag.windowQuantile(0.99), "ms", o.lag.count())
		if o.workload == "publish" {
			rep.line("cpu_us_per_event", perWindowCPU(o.cpuMarks, o.cpuOps), "us", o.openLat.count())
		}
	}
	if o.closed != nil {
		rep.line("publish_capacity_eps", o.closed.arrivals.perSecond(), "1/s", o.closed.arrivals.count())
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeRecord stores the run's full record, fingerprint included, under
// resultsDir. Failing to write it does not fail the run.
func writeRecord(workload string, seed int64, traced bool, fp fingerprint, rep *report, sum summary) {
	rec := struct {
		Workload string         `json:"workload"`
		Seed     int64          `json:"seed"`
		Traced   bool           `json:"traced"`
		Host     fingerprint    `json:"host"`
		Time     string         `json:"time"`
		Samples  map[string]int `json:"samples"`
		Summary  summary        `json:"summary"`
	}{workload, seed, traced, fp, time.Now().UTC().Format(time.RFC3339), rep.samples, sum}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.MkdirAll(resultsDir, 0o755)
	}
	if err == nil {
		name := fmt.Sprintf("%s-seed%d-trace0.json", workload, seed)
		if traced {
			name = fmt.Sprintf("%s-seed%d-trace1.json", workload, seed)
		}
		err = os.WriteFile(filepath.Join(resultsDir, name), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result record:", err)
	}
}
