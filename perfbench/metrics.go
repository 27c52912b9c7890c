package main

// metricDef names one metric the benchmark reports, with its unit, which
// direction is better and, for end-to-end metrics, the share of the
// parent's median by which it may get worse before a change is rejected.
// BENCHMARK.json lists the same metrics; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, from untraced runs.
// success_ratio is 1 − fail_ratio: the share of attempted requests whose
// calls all succeeded and whose outputs passed their check.
var endToEnd = []metricDef{
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"latency_ms_p90", "ms", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"precision_bits", "bits", "higher", 0.2},
	{"success_ratio", "ratio", "higher", 0.01},
}

// Span names the benchmark records around its calls into each layer.
var (
	ckksSpans = []string{
		"ckks.mulrelin", "ckks.rescale", "ckks.rotate", "ckks.add", "ckks.mulconst",
		"ckks.linear_transform", "ckks.addplain",
		"ckks.encode", "ckks.encrypt", "ckks.decrypt", "ckks.decode",
	}
	tfheSpans  = []string{"tfhe.circuit", "tfhe.encrypt", "tfhe.decrypt"}
	setupSpans = []string{"setup.context", "setup.keygen", "setup.tfhe_keygen"}
)

// ringKernelUnits maps each timed ring kernel to what its computed
// operation count counts.
var ringKernelUnits = []struct{ kernel, ops string }{
	{"ntt", "butterflies"}, {"intt", "butterflies"}, {"automorphism_ntt", "words"},
	{"modup", "macs"}, {"moddown", "macs"}, {"bconv", "macs"},
	{"ks_accumulate", "products"}, {"mul_coeffs", "products"}, {"mul_coeffs_add", "products"},
}

// perLayer returns the per-layer metrics of the traced run. Every workload
// reports all of them; one that does not use a layer reports 0 for it.
func perLayer() []metricDef {
	m := []metricDef{{"app.self_ms", "ms", "lower", 0}}
	for _, s := range append(append([]string{}, ckksSpans...), tfheSpans...) {
		m = append(m, metricDef{s + ".ms", "ms", "lower", 0}, metricDef{s + ".calls", "count", "lower", 0})
	}
	for _, k := range ringKernelUnits {
		p := "ring." + k.kernel
		m = append(m,
			metricDef{p + ".us", "us", "lower", 0},
			metricDef{p + ".speedup_w2", "x", "higher", 0},
			metricDef{p + "." + k.ops, "count.computed", "lower", 0},
			metricDef{p + ".bytes", "B.computed", "lower", 0},
		)
	}
	m = append(m,
		metricDef{"tfhe.pbs_per_req", "count", "lower", 0},
		metricDef{"tfhe.pbs.ms", "ms", "lower", 0},
		metricDef{"tfhe.pbs_batch.ms_per_job", "ms", "lower", 0},
		metricDef{"tfhe.pbs_batch.speedup_w2", "x", "higher", 0},
		metricDef{"tfhe.keyswitch.ms", "ms", "lower", 0},
		metricDef{"bridge.to_lwe.ms", "ms", "lower", 0},
		metricDef{"bridge.sign.ms", "ms", "lower", 0},
		metricDef{"runtime.alloc_mb_per_req", "MB", "lower", 0},
		metricDef{"runtime.allocs_per_req", "count", "lower", 0},
		metricDef{"runtime.gc_cycles_per_req", "count", "lower", 0},
		metricDef{"runtime.gc_pause_ms_per_req", "ms", "lower", 0},
	)
	for _, s := range setupSpans {
		m = append(m, metricDef{s + "_s", "s", "lower", 0})
	}
	m = append(m, metricDef{"setup.bridge_s", "s", "lower", 0})
	return append(m, metricDef{"trace.overhead_pct", "%", "lower", 0})
}
