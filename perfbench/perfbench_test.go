package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// Spans each workload must record at least once per request; every other
// span must be absent. The client side of helr-step is untimed and so
// untraced.
var wantSpans = map[string][]string{
	"helr-step": {"ckks.mulrelin", "ckks.rescale", "ckks.rotate", "ckks.add", "ckks.mulconst",
		"ckks.addplain", "ckks.encode"},
	"lola-infer": {"ckks.linear_transform", "ckks.mulrelin", "ckks.rescale", "ckks.addplain",
		"ckks.encode", "ckks.encrypt", "ckks.decrypt", "ckks.decode"},
	"tfhe-adder": {"tfhe.circuit", "tfhe.encrypt", "tfhe.decrypt"},
}

// The kernel tiers each workload times: ring kernels at its CKKS shape, or
// the TFHE bootstrap and key switch together with the CKKS→TFHE bridge.
var (
	wantRing = map[string]bool{"helr-step": true, "lola-infer": true}
	wantTFHE = map[string]bool{"tfhe-adder": true}
)

var wantSetup = map[string][]string{
	"helr-step":  {"setup.context", "setup.keygen"},
	"lola-infer": {"setup.context", "setup.keygen"},
	"tfhe-adder": {"setup.tfhe_keygen"},
}

// smoke holds one short untraced and one short traced run of a workload.
type smoke struct {
	plain, traced report
	err           error
}

var (
	smokeMu   sync.Mutex
	smokeRuns = map[string]*smoke{}
)

// smokeRun runs (once per test binary) a short untraced and traced run.
func smokeRun(t *testing.T, name string) *smoke {
	t.Helper()
	smokeMu.Lock()
	defer smokeMu.Unlock()
	if s, ok := smokeRuns[name]; ok {
		return s
	}
	s := &smoke{}
	o := options{workload: name, seed: 7, seconds: 0.3, minReqs: inputPool}
	if s.plain, s.err = measure(o); s.err == nil {
		o.trace = true
		s.traced, s.err = measure(o)
	}
	smokeRuns[name] = s
	return s
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	for _, s := range specs {
		want = append(want, s.name+": "+s.why)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nprogram\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nprogram\n%v", b.PerLayer, perLayer())
	}
}

// TestEveryMetricEmitted checks that each workload's untraced run reports
// every end-to-end metric and its traced run every per-layer metric, with
// the declared units, and that the layers a workload uses report non-zero
// figures while the ones it bypasses report 0.
func TestEveryMetricEmitted(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			s := smokeRun(t, sp.name)
			if s.err != nil {
				t.Fatal(s.err)
			}
			checkEmitted(t, s.plain, endToEnd)
			checkEmitted(t, s.traced, perLayer())
			for _, d := range endToEnd {
				if v := s.plain.Metrics[d.Name].Value; v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
					t.Errorf("%s = %v, want a positive number", d.Name, v)
				}
			}

			m := s.traced.Metrics
			used := map[string]bool{}
			for _, n := range wantSpans[sp.name] {
				used[n] = true
			}
			for _, n := range append(append([]string{}, ckksSpans...), tfheSpans...) {
				if calls := m[n+".calls"].Value; (calls > 0) != used[n] {
					t.Errorf("%s.calls = %v, span expected: %v", n, calls, used[n])
				}
			}
			setup := map[string]bool{}
			for _, n := range wantSetup[sp.name] {
				setup[n] = true
			}
			for _, n := range setupSpans {
				if v := m[n+"_s"].Value; (v > 0) != setup[n] {
					t.Errorf("%s_s = %v, set-up stage expected: %v", n, v, setup[n])
				}
			}
			for _, k := range ringKernelUnits {
				p := "ring." + k.kernel
				for _, n := range []string{p + ".us", p + ".speedup_w2", p + "." + k.ops, p + ".bytes"} {
					if v := m[n].Value; (v > 0) != wantRing[sp.name] {
						t.Errorf("%s = %v, ring kernels timed: %v", n, v, wantRing[sp.name])
					}
				}
			}
			for _, n := range []string{"tfhe.pbs_per_req", "tfhe.pbs.ms", "tfhe.pbs_batch.ms_per_job",
				"tfhe.pbs_batch.speedup_w2", "tfhe.keyswitch.ms",
				"bridge.to_lwe.ms", "bridge.sign.ms", "setup.bridge_s"} {
				if v := m[n].Value; (v > 0) != wantTFHE[sp.name] {
					t.Errorf("%s = %v, tfhe kernels timed: %v", n, v, wantTFHE[sp.name])
				}
			}
			for _, n := range []string{"app.self_ms", "runtime.alloc_mb_per_req", "runtime.allocs_per_req"} {
				if v := m[n].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", n, v)
				}
			}
		})
	}
}

func checkEmitted(t *testing.T, rep report, defs []metricDef) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d defined", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not emitted", d.Name)
			continue
		}
		if v.Unit != d.Unit {
			t.Errorf("metric %s has unit %q, want %q", d.Name, v.Unit, d.Unit)
		}
	}
}

// TestSmokeRunsDoNotFail checks that a short run of each workload, traced
// and untraced, has no failed request.
func TestSmokeRunsDoNotFail(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			s := smokeRun(t, sp.name)
			if s.err != nil {
				t.Fatal(s.err)
			}
			for _, rep := range []report{s.plain, s.traced} {
				if rep.Failed != 0 || !rep.Correct || rep.Attempted < 1 {
					t.Errorf("attempted %d, failed %d, correct %v", rep.Attempted, rep.Failed, rep.Correct)
				}
			}
			if r := s.plain.Metrics["success_ratio"].Value; r != 1 {
				t.Errorf("success_ratio = %v, want 1 (fail ratio 0)", r)
			}
		})
	}
}

// TestTracingChangesNoResult runs the same requests on one set-up with
// tracing off and then on, and requires bit-identical decrypted outputs. It
// also checks that each traced request's self time is not negative, i.e.
// its child spans never overlap.
func TestTracingChangesNoResult(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			wl, err := sp.setup(11, 0, newTracer(false))
			if err != nil {
				t.Fatal(err)
			}
			defer wl.close()
			off := requestOutputs(t, wl, newTracer(false))
			tr := newTracer(true)
			on := requestOutputs(t, wl, tr)
			if !reflect.DeepEqual(off, on) {
				t.Errorf("outputs differ with tracing on:\noff %v\non  %v", off, on)
			}
			st := tr.stats()
			if len(st.reqs) != len(on) {
				t.Errorf("%d traced requests, want %d", len(st.reqs), len(on))
			}
			for _, r := range st.reqs {
				if st.selfMs[r] < 0 || st.selfMs[r] > st.totalMs[r] {
					t.Errorf("request %d: self %v ms of %v ms", r, st.selfMs[r], st.totalMs[r])
				}
			}
		})
	}
}

// TestSeedFixesOutputs sets a workload up twice from one seed and requires
// the same decrypted outputs, so precision_bits repeats exactly for a seed.
func TestSeedFixesOutputs(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			var outs [2][][]float64
			for pass := range outs {
				wl, err := sp.setup(13, 0, newTracer(false))
				if err != nil {
					t.Fatal(err)
				}
				outs[pass] = requestOutputs(t, wl, newTracer(false))
				wl.close()
			}
			if !reflect.DeepEqual(outs[0], outs[1]) {
				t.Errorf("outputs differ between set-ups:\n%v\n%v", outs[0], outs[1])
			}
		})
	}
}

// requestOutputs runs the first three requests and returns their outputs.
func requestOutputs(t *testing.T, wl workload, tr *tracer) [][]float64 {
	t.Helper()
	var outs [][]float64
	for i := 0; i < 3; i++ {
		res, err := wl.request(i, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.ok {
			t.Errorf("request %d failed its check (error %g)", i, res.maxErr)
		}
		outs = append(outs, res.outputs)
	}
	return outs
}

// TestUnstolen checks the steal correction: no steal leaves the wall time,
// steal on the busy CPU removes its share, and steal charged to a CPU that
// did almost no work counts only by that work's weight.
func TestUnstolen(t *testing.T) {
	iv := func(wallMs float64, cpus ...cpuTime) interval {
		return interval{wall: time.Duration(wallMs * 1e6), cpus: cpus}
	}
	cases := []struct {
		name string
		iv   interval
		want float64
	}{
		{"no steal", iv(100, cpuTime{busy: 10}, cpuTime{busy: 0}), 100},
		{"busy cpu stolen a quarter", iv(100, cpuTime{busy: 9, steal: 3}, cpuTime{}), 75},
		{"idle cpu stolen", iv(100, cpuTime{busy: 10}, cpuTime{steal: 5}), 100},
		{"both stolen alike", iv(100, cpuTime{busy: 8, steal: 2}, cpuTime{busy: 8, steal: 2}), 80},
	}
	for _, c := range cases {
		if got := unstolen([]interval{c.iv})[0]; math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: %v ms, want %v", c.name, got, c.want)
		}
	}
}
