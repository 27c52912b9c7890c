// Command perfbench is the repository's same-host application benchmark. It
// runs one FHE application workload through the live schemes' public
// functions as a closed loop with one client, checks every request's
// decrypted output against a plaintext reference, and prints the metrics as
// a JSON object on the last line of standard output.
//
//	perfbench --workload helr-step --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; an
// untraced run lasts --seconds and at least 100 requests. Times are wall
// times with the share the hypervisor stole from the VM removed (see
// unstolen); the table also prints them as measured. With --trace 1 it
// records a span around every call into a layer, times the ring and TFHE
// kernels alone at the workload's shape, and reports the per-layer metrics;
// the spans are written to .bench_build/trace/<workload>-seed<n>.json. A
// line before the result records the host: CPU, nproc, GOMAXPROCS, the CPU
// flags that pick the kernel tier, the Go version, the source revision and
// the CPU steal during the run.
//
// run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	minReqs  int    // requests an untraced run completes at least
	traceOut string // file for the traced run's spans; "" keeps them in memory only
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// wallMs holds latencies as measured, stolen time included, for the
	// table only.
	wallMs map[string]float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed of the keys, the model and the request inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds the request loop runs")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics from an untraced one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	o.trace = trace == 1
	o.minReqs = 100
	o.traceOut = fmt.Sprintf(".bench_build/trace/%s-seed%d.json", o.workload, o.seed)

	h := hostRecord()
	before, total0 := cpuTimes()
	rep, err := measure(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if after, total1 := cpuTimes(); total1 > total0 && len(after) == len(before) {
		for k := range after {
			h.StealPct += 100 * (after[k].steal - before[k].steal) / (total1 - total0)
		}
	}
	hostLine, err := json.Marshal(map[string]any{"host": h, "workload": o.workload, "seed": o.seed})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(hostLine))
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
		if w, ok := rep.wallMs[n]; ok {
			fmt.Fprintf(stdout, "%-36s %14.6g ms (wall, as measured)\n", "", w)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

func measure(o options) (report, error) {
	sp, err := lookup(o.workload)
	if err != nil {
		return report{}, err
	}
	if o.trace {
		return measureTraced(sp, o)
	}
	return measurePlain(sp, o)
}

// An untraced run sets its workload up setupReps times, each with its own
// key set, and setup_s is the median. Every set-up but the last, which
// serves the timed loop, answers probeRequests requests; they count towards
// precision_bits and the failures but not towards the latencies. A CKKS
// output's error depends on the key set far more than on the input (one
// helr-step key set's 32 inputs lie within 0.5 bit of each other, while key
// sets differ by up to 4 bits), so the worst error over five key sets
// varies less between seeds than that of one.
const (
	setupReps     = 5
	probeRequests = 4
)

// measurePlain is the untraced run behind the end-to-end metrics: the
// workload is set up setupReps times, and the last set-up is warmed and
// driven for o.seconds and at least o.minReqs requests: 100 requests leave
// at least 10 samples beyond the 90th percentile.
func measurePlain(sp spec, o options) (report, error) {
	off := newTracer(false)
	var setups []interval
	var wl workload
	var probes loopResult
	for len(setups) < setupReps {
		if wl != nil {
			probes = probes.merge(drive(wl, off, 0, probeRequests))
			// Free the previous set-up before the next, so peak_rss_mb is
			// one set-up's figure: the second collection also empties the
			// sync.Pool victim caches that can keep its keys reachable.
			wl.close()
			wl = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := readUsage()
		w, err := sp.setup(o.seed, len(setups), off)
		if err != nil {
			return report{}, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		setups = append(setups, readUsage().since(start))
		wl = w
	}
	defer wl.close()
	if err := warm(wl); err != nil {
		return report{}, err
	}
	lr := drive(wl, off, time.Duration(o.seconds*float64(time.Second)), o.minReqs)
	lat := lr.latenciesMs()
	sum := 0.0
	for _, l := range lat {
		sum += l
	}
	m := map[string]float64{
		"latency_ms_p50": quantile(lat, 0.5),
		"latency_ms_p90": quantile(lat, 0.9),
		// Requests per second of timed request time: helr-step's untimed
		// client side stays out, as it does of its latency.
		"throughput_rps": float64(lr.completed()) / (sum / 1e3),
		"setup_s":        median(unstolen(setups)) / 1e3,
		"peak_rss_mb":    peakRSSMB(),
	}
	wall := lr.wallMs()
	all := lr.merge(probes)
	m["success_ratio"] = float64(all.completed()) / float64(all.attempted)
	// With no output to compare, precision_bits stays 0 and the result
	// line still reports the failures.
	if all.maxErr > 0 {
		m["precision_bits"] = -math.Log2(all.maxErr)
	}
	rep := all.report(endToEnd, m)
	rep.wallMs = map[string]float64{
		"latency_ms_p50": quantile(wall, 0.5),
		"latency_ms_p90": quantile(wall, 0.9),
	}
	return rep, nil
}

// measureTraced is the traced run behind the per-layer metrics: one traced
// set-up, then an untraced loop (the overhead baseline and the runtime
// counters), a traced loop (the spans), and the kernel tier, splitting
// o.seconds 3:4:3 between them.
func measureTraced(sp spec, o options) (report, error) {
	tr := newTracer(true)
	wl, err := sp.setup(o.seed, 0, tr)
	if err != nil {
		return report{}, fmt.Errorf("%s set-up: %w", sp.name, err)
	}
	defer wl.close()
	if err := warm(wl); err != nil {
		return report{}, err
	}
	total := time.Duration(o.seconds * float64(time.Second))
	const minRequests = 3

	before := readRuntime()
	plain := drive(wl, newTracer(false), total*3/10, minRequests)
	m := perRequest(before, readRuntime(), plain.attempted)

	traced := drive(wl, tr, total*4/10, minRequests)
	st := tr.stats()
	self := make([]float64, 0, len(st.reqs))
	for _, r := range st.reqs {
		self = append(self, st.selfMs[r])
	}
	m["app.self_ms"] = median(self)
	for name, v := range st.ms {
		m[name+".ms"] = median(v)
		m[name+".calls"] = median(st.calls[name])
	}
	for name, s := range tr.setupSeconds() {
		m[name+"_s"] = s
	}
	m["tfhe.pbs_per_req"] = float64(wl.pbsPerRequest())
	m["trace.overhead_pct"] = (quantile(traced.latenciesMs(), 0.5)/quantile(plain.latenciesMs(), 0.5) - 1) * 100

	k, err := wl.kernels(total * 3 / 10)
	if err != nil {
		return report{}, fmt.Errorf("%s kernels: %w", sp.name, err)
	}
	for name, v := range k {
		m[name] = v
	}
	if o.traceOut != "" {
		if err := tr.write(o.traceOut); err != nil {
			return report{}, err
		}
	}
	lr := plain.merge(traced)
	return lr.report(perLayer(), m), nil
}

// warm runs two requests before timing starts, so pools fill and lazy
// set-up finishes.
func warm(wl workload) error {
	off := newTracer(false)
	for i := 0; i < 2; i++ {
		if _, err := wl.request(i, off); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
	}
	return nil
}

// loopResult collects a closed loop's requests.
type loopResult struct {
	results   []result
	attempted int
	failed    int
	maxErr    float64
}

// drive sends requests one after another, each after the previous one has
// finished, until budget has passed and at least minRequests have run.
func drive(wl workload, tr *tracer, budget time.Duration, minRequests int) loopResult {
	var lr loopResult
	start := time.Now()
	for i := 0; time.Since(start) < budget || i < minRequests; i++ {
		lr.attempted++
		res, err := wl.request(i, tr)
		if err != nil || !res.ok {
			lr.failed++
		}
		if err == nil {
			lr.results = append(lr.results, res)
			lr.maxErr = math.Max(lr.maxErr, res.maxErr)
		}
	}
	return lr
}

func (lr loopResult) completed() int { return lr.attempted - lr.failed }

// latenciesMs returns the requests' latencies with stolen time removed.
func (lr loopResult) latenciesMs() []float64 {
	ivs := make([]interval, len(lr.results))
	for i, r := range lr.results {
		ivs[i] = r.cost
	}
	return unstolen(ivs)
}

// wallMs returns the requests' wall times as measured.
func (lr loopResult) wallMs() []float64 {
	out := make([]float64, len(lr.results))
	for i, r := range lr.results {
		out[i] = float64(r.cost.wall) / 1e6
	}
	return out
}

func (lr loopResult) merge(o loopResult) loopResult {
	lr.results = append(append([]result(nil), lr.results...), o.results...)
	lr.attempted += o.attempted
	lr.failed += o.failed
	lr.maxErr = math.Max(lr.maxErr, o.maxErr)
	return lr
}

// report emits every metric in defs, 0 where m has none.
func (lr loopResult) report(defs []metricDef, m map[string]float64) report {
	rep := report{
		Correct:   lr.failed == 0,
		Attempted: lr.attempted,
		Failed:    lr.failed,
		Metrics:   map[string]value{},
	}
	for _, d := range defs {
		rep.Metrics[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
	}
	return rep
}
