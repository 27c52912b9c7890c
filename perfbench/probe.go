package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is not available.
func peakRSSMB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	v, err := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	if err != nil {
		return 0
	}
	return v / 1024
}

// procField returns the trimmed remainder of the first line of path that
// starts with key, or "" if there is none.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, key) {
			return strings.TrimSpace(strings.TrimPrefix(line, key))
		}
	}
	return ""
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC
// counters, read through runtime/metrics.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles, gcPauseSec float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	var out runtimeSample
	out.allocBytes = float64(s[0].Value.Uint64())
	out.allocObjects = float64(s[1].Value.Uint64())
	out.gcCycles = float64(s[2].Value.Uint64())
	out.gcPauseSec = histogramSum(s[3].Value.Float64Histogram())
	return out
}

// histogramSum estimates the total of a runtime/metrics histogram, taking
// each sample at its bucket's lower bound (the upper bound for a bucket
// open below).
func histogramSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, c := range h.Counts {
		v := h.Buckets[i]
		if v < -1e300 {
			v = h.Buckets[i+1]
		}
		if v > 1e300 {
			continue
		}
		sum += float64(c) * v
	}
	return sum
}

// perRequest returns the runtime counters per request between two samples.
func perRequest(before, after runtimeSample, requests int) map[string]float64 {
	r := float64(requests)
	return map[string]float64{
		"runtime.alloc_mb_per_req":    (after.allocBytes - before.allocBytes) / r / (1 << 20),
		"runtime.allocs_per_req":      (after.allocObjects - before.allocObjects) / r,
		"runtime.gc_cycles_per_req":   (after.gcCycles - before.gcCycles) / r,
		"runtime.gc_pause_ms_per_req": (after.gcPauseSec - before.gcPauseSec) * 1e3 / r,
	}
}

// host identifies the machine and build a result was measured on, so no
// result is compared across hosts without the reader seeing it.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	AVX2       bool   `json:"avx2"`
	AVX512IFMA bool   `json:"avx512ifma"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	// StealPct is the share of the CPUs' time the hypervisor gave to other
	// guests during the run. Timings from a run with a high share were
	// slowed by the host, not by the program.
	StealPct float64 `json:"steal_pct"`
}

// revision is the source revision, set at build time by run.sh.
var revision = "unknown"

func hostRecord() host {
	flags := " " + procField("/proc/cpuinfo", "flags") + " "
	cpu := strings.TrimPrefix(procField("/proc/cpuinfo", "model name"), ": ")
	return host{
		CPU:        cpu,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		AVX2:       strings.Contains(flags, " avx2 "),
		AVX512IFMA: strings.Contains(flags, " avx512ifma "),
		GoVersion:  runtime.Version(),
		Revision:   revision,
	}
}

// cpuTime is one CPU's busy and stolen time, in /proc/stat clock ticks.
type cpuTime struct{ busy, steal float64 }

// cpuTimes returns the busy and stolen time of each CPU and the total time
// of all CPUs, in clock ticks, from /proc/stat (nil, 0 where it is not
// available).
func cpuTimes() (cpus []cpuTime, total float64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || !strings.HasPrefix(fields[0], "cpu") || fields[0] == "cpu" {
			continue
		}
		// user nice system idle iowait irq softirq steal …
		var v [8]float64
		for i := range v {
			v[i], _ = strconv.ParseFloat(fields[i+1], 64)
			total += v[i]
		}
		cpus = append(cpus, cpuTime{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]})
	}
	return cpus, total
}

// usage is a reading of the wall clock and of each CPU's busy and stolen
// time.
type usage struct {
	wall time.Time
	cpus []cpuTime
}

func readUsage() usage {
	cpus, _ := cpuTimes()
	return usage{wall: time.Now(), cpus: cpus}
}

// interval is what one timed stretch took: its wall time and each CPU's
// busy and stolen time during it.
type interval struct {
	wall time.Duration
	cpus []cpuTime
}

func (u usage) since(start usage) interval {
	iv := interval{wall: u.wall.Sub(start.wall)}
	for k := range u.cpus {
		if k < len(start.cpus) {
			iv.cpus = append(iv.cpus, cpuTime{u.cpus[k].busy - start.cpus[k].busy, u.cpus[k].steal - start.cpus[k].steal})
		}
	}
	return iv
}

// stealWindow is how many neighbours on each side of an interval unstolen
// pools its CPU times with. /proc/stat counts in 10 ms ticks, coarse
// against one request's 100-300 ms; five pooled requests bring the rounding
// to a few percent while still following steal that changes within a
// second.
const stealWindow = 2

// unstolen returns the wall time of each interval, in milliseconds, with
// the share the hypervisor stole from the VM removed. A busy vCPU that is
// stolen from a share s of its runnable time runs 1/(1−s) times slower, so
// the unstolen time is wall × (1 − s). s is taken per CPU as steal/(busy +
// steal) and weighted by the CPU's busy time, so steal charged to an idle
// vCPU as it wakes does not count; times are pooled over the interval and
// its stealWindow neighbours on each side. With no steal the figure is the
// wall time itself. On a shared host, steal otherwise moves latency by as
// much as 1.7× between runs minutes apart, wider than any bound. The
// correction is approximate: a single-threaded request loses less than s
// and a wavefront of two workers, where a stall of either holds up the
// other, more.
func unstolen(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		var pool []cpuTime
		for _, w := range ivs[max(0, i-stealWindow):min(len(ivs), i+stealWindow+1)] {
			for k, c := range w.cpus {
				if k == len(pool) {
					pool = append(pool, cpuTime{})
				}
				pool[k].busy += c.busy
				pool[k].steal += c.steal
			}
		}
		var stolen, busy float64
		for _, c := range pool {
			if c.busy > 0 {
				stolen += c.busy * c.steal / (c.busy + c.steal)
				busy += c.busy
			}
		}
		share := 1.0
		if busy > 0 {
			share = 1 - stolen/busy
		}
		out[i] = float64(iv.wall) / 1e6 * share
	}
	return out
}
