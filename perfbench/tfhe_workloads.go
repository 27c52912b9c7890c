package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"alchemist/internal/bridge"
	"alchemist/internal/ckks"
	"alchemist/internal/prng"
	"alchemist/internal/tfhe"
)

// ---------------------------------------------------------------------------
// tfhe-adder: a 4-bit ripple-carry adder of bootstrapped gates.

const adderBits = 4

type adder struct {
	ops    tfheOps
	boot   *tfhe.Bootstrapper
	circ   *tfhe.Circuit
	seed   int64
	inputs [][2]int
}

// newAdder generates a TFHE SetI scheme and builds a bootstrapper over it,
// which also generates the FFT-form bootstrapping key ahead of first use.
func newAdder(seed int64, keySet int, tr *tracer) (workload, error) {
	a := &adder{circ: tfhe.AdderCircuit(adderBits), seed: seed}
	err := step(tr, "setup.tfhe_keygen", func() error {
		s, err := tfhe.NewScheme(tfhe.DefaultParams(), derive(seed, streamTFHEKeys, keySet))
		if err != nil {
			return err
		}
		a.ops = tfheOps{s: s}
		a.boot, err = s.Bootstrapper()
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < inputPool; i++ {
		r := prng.New(derive(seed, streamInputs, i))
		a.inputs = append(a.inputs, [2]int{r.Intn(1 << adderBits), r.Intn(1 << adderBits)})
	}
	return a, nil
}

// request encrypts both operands bit by bit, evaluates the circuit with
// workers() gate workers, decrypts the five output bits and compares the
// sum with the exact one.
func (a *adder) request(i int, tr *tracer) (result, error) {
	x, y := a.inputs[i%inputPool][0], a.inputs[i%inputPool][1]
	rng := prng.New(derive(a.seed, streamEncrypt, i%inputPool))
	o := a.ops
	o.tr = tr

	done := tr.request(i)
	in := make([]*tfhe.LweSample, 0, 2*adderBits)
	for _, v := range []int{x, y} {
		for b := 0; b < adderBits; b++ {
			in = append(in, o.encrypt(v>>b&1 == 1, rng))
		}
	}
	out, err := o.circuit(a.circ, in, workers())
	if err != nil {
		done()
		return result{}, err
	}
	sum := 0
	for b, c := range out {
		if o.decrypt(c) {
			sum |= 1 << b
		}
	}
	cost := done()

	want := x + y
	res := result{cost: cost, ok: sum == want}
	for b, c := range out {
		e := phaseError(o.s, c, want>>b&1 == 1)
		res.maxErr = math.Max(res.maxErr, e)
		res.outputs = append(res.outputs, tfhe.DoubleFromTorus(o.s.LweKey.Phase(c)))
	}
	return res, nil
}

func (a *adder) pbsPerRequest() int {
	g, _ := a.circ.Gates()
	return g
}

// kernels times the TFHE kernels and, on the same SetI scheme, the
// CKKS→TFHE bridge.
func (a *adder) kernels(budget time.Duration) (map[string]float64, error) {
	m, err := tfheKernels(a.ops.s, a.boot, budget*2/3)
	if err != nil {
		return nil, err
	}
	b, err := bridgeKernels(a.ops.s, a.seed, budget/3)
	for k, v := range b {
		m[k] = v
	}
	return m, err
}

func (a *adder) close() {}

// tfheKernels times Bootstrapper.Run, RunBatch at one and two workers, and
// the key switch from the extracted key back to the level-0 key.
func tfheKernels(s *tfhe.Scheme, boot *tfhe.Bootstrapper, budget time.Duration) (map[string]float64, error) {
	ctx := context.Background()
	rng := prng.New(1)
	ct := s.LweKey.Encrypt(gateMu(true), s.Params.LweSigma, rng)
	m := map[string]float64{}
	var runErr error
	m["tfhe.pbs.ms"] = timeCall(budget/4, func() {
		out, err := boot.Run(ctx, ct)
		if err != nil {
			runErr = err
			return
		}
		boot.Recycle(out)
	}) * 1e3

	const batch = 16
	cts := make([]*tfhe.LweSample, batch)
	for i := range cts {
		cts[i] = s.LweKey.Encrypt(gateMu(i&1 == 0), s.Params.LweSigma, rng)
	}
	perJob := map[int]float64{}
	for _, w := range []int{1, 2} {
		bw, err := s.Bootstrapper(tfhe.WithWorkers(w))
		if err != nil {
			return nil, err
		}
		perJob[w] = timeCall(budget/4, func() {
			outs, err := bw.RunBatch(ctx, cts)
			if err != nil {
				runErr = err
				return
			}
			for _, o := range outs {
				bw.Recycle(o)
			}
		}) * 1e3 / batch
	}
	m["tfhe.pbs_batch.ms_per_job"] = perJob[1]
	m["tfhe.pbs_batch.speedup_w2"] = perJob[1] / perJob[2]

	ext := tfhe.NewLweSample(s.Params.K * s.Params.N)
	for i := range ext.A {
		ext.A[i] = rng.Uint32()
	}
	ext.B = rng.Uint32()
	m["tfhe.keyswitch.ms"] = timeCall(budget/4, func() {
		if _, err := s.KeySwitch(ext); err != nil {
			runErr = err
		}
	}) * 1e3
	return m, runErr
}

// bridgeValues is how many slots one ToLWE call extracts.
const bridgeValues = 4

// bridgeKernels times Bridge.ToLWE and Bridge.Sign alone at the
// cross-scheme shape: CKKS N=2^9, L=3 with a 2^42 scale over a 45-bit q0
// (a slot value v bridges to the torus phase v/8), switched into the SetI
// scheme s. The ciphertext sits one level down, where a product of two
// fresh ones would. setup.bridge_s is the time of bridge.New. The values
// are ±0.25, 12 noise deviations from the sign's decision point, and each
// bridged sign is checked.
//
// A whole bridge-sign workload (the client encrypts x, CKKS computes
// x²−0.25, then ToLWE and one Sign per value) is left out of the
// benchmark: its verdicts are wrong at times for inputs outside the
// |x²−0.25| < 0.05 band that bridge_test.go documents as ambiguous under
// noise, and bridge.New draws its rotation keys in map order, so one seed
// does not fix its keys or its failures.
func bridgeKernels(s *tfhe.Scheme, seed int64, budget time.Duration) (map[string]float64, error) {
	params, err := ckks.GenParams(9, 3, 2, 2, 45, 42, 45)
	if err != nil {
		return nil, err
	}
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return nil, err
	}
	defer ctx.Close()
	kg := ckks.NewKeyGenerator(ctx, derive(seed, streamBridge, 0))
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	start := time.Now()
	br, err := bridge.New(ctx, kg, sk, s)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{"setup.bridge_s": time.Since(start).Seconds()}
	br.SetWorkers(workers())

	values := make([]complex128, params.Slots())
	for j := 0; j < bridgeValues; j++ {
		values[j] = complex(0.25-0.5*float64(j&1), 0)
	}
	level := params.MaxLevel() - 1
	pt, err := ckks.NewEncoder(ctx).Encode(values, level, params.Scale)
	if err != nil {
		return nil, err
	}
	ct := ckks.NewEncryptor(ctx, pk, derive(seed, streamBridge, 1)).Encrypt(pt, level, params.Scale)

	var lwes []*tfhe.LweSample
	var runErr error
	m["bridge.to_lwe.ms"] = timeCall(budget/2, func() {
		if lwes, err = br.ToLWE(ct, bridgeValues); err != nil {
			runErr = err
		}
	}) * 1e3
	if runErr != nil {
		return nil, runErr
	}
	m["bridge.sign.ms"] = timeCall(budget/2, func() {
		if _, err := br.Sign(lwes[0]); err != nil {
			runErr = err
		}
	}) * 1e3
	if runErr != nil {
		return nil, runErr
	}
	for j, l := range lwes {
		out, err := br.Sign(l)
		if err != nil {
			return nil, err
		}
		if s.DecryptBool(out) != (real(values[j]) > 0) {
			return nil, fmt.Errorf("bridge: sign of %v decrypted wrong", real(values[j]))
		}
	}
	return m, nil
}
