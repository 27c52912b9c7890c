package main

import (
	"fmt"
	"runtime"
	"time"
)

// result is the outcome of one request.
type result struct {
	cost    interval  // the request's timed part
	ok      bool      // the output passed its check
	maxErr  float64   // worst absolute error of an output against its exact reference
	outputs []float64 // decrypted outputs, compared across traced and untraced runs
}

// workload is one application set up from a seed. Requests run one at a
// time from a single client goroutine (a closed loop with one client).
type workload interface {
	// request runs request i. Its inputs, and the randomness of its
	// encryptions, come from the seed and i mod inputPool alone, so on one
	// set-up request i always decrypts to the same outputs.
	request(i int, tr *tracer) (result, error)
	// pbsPerRequest is the number of programmable bootstraps one request
	// runs (0 for a CKKS-only workload).
	pbsPerRequest() int
	// kernels times the ring and TFHE kernels the workload uses, each called
	// alone at the workload's own shape, within roughly budget.
	kernels(budget time.Duration) (map[string]float64, error)
	close()
}

// spec defines a workload: its name, why it is in the benchmark, and how to
// set it up with key set keySet of a seed (the model and the request inputs
// depend on the seed alone).
type spec struct {
	name  string
	why   string
	setup func(seed int64, keySet int, tr *tracer) (workload, error)
}

// inputPool is the number of distinct request inputs a run cycles through.
// An untraced run completes at least 100 requests, more than this, so the
// worst error over a run, precision_bits, is the same for every run with
// one seed.
const inputPool = 32

// specs lists the workloads in the order BENCHMARK.json names them.
var specs = []spec{
	{
		name:  "helr-step",
		why:   "Keyswitch-bound HELR step (4 MulRelin, 12 dependent rotations) at N=2^13, above the parallel floor; NTT, ModUp/ModDown and KSAccumulate changes show here",
		setup: newHELR,
	},
	{
		name:  "lola-infer",
		why:   "LoLa round trip at N=2^11, below the parallel floor: per-diagonal encoding, MulPlain and hoisted rotations plus the CRT decode; a change that loses at small N shows here",
		setup: newLoLa,
	},
	{
		name:  "tfhe-adder",
		why:   "4-bit adder of 17 bootstrapped gates: FFT blind rotation and LWE keyswitch with wavefront parallelism; never touches the RNS ring, so ring or ckks changes predict none",
		setup: newAdder,
	},
}

func lookup(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// workers is the intra-request parallelism: ring workers and circuit gate
// workers are both capped at the CPUs the process may use.
func workers() int { return runtime.GOMAXPROCS(0) }

// derive mixes the workload seed with a stream tag and an index
// (splitmix64), giving every key, model and request input its own
// reproducible seed.
func derive(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<32 + uint64(i)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// Seed streams.
const (
	streamKeys = iota + 1
	streamTFHEKeys
	streamModel
	streamInputs
	streamEncrypt
	streamBridge
)

// absErr returns the largest |got[i] - want[i]|.
func absErr(got, want []float64) float64 {
	worst := 0.0
	for i := range want {
		d := got[i] - want[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// step times one named setup stage.
func step(tr *tracer, name string, f func() error) error {
	defer tr.end(tr.begin(name))
	return f()
}
