package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"alchemist/internal/ckks"
	"alchemist/internal/prng"
)

// ckksKeys is a CKKS context with its keys, shared by the CKKS workloads.
type ckksKeys struct {
	ctx *ckks.Context
	pk  *ckks.PublicKey
	ops ckksOps
}

// newCKKSKeys builds the context and key set keySet of the seed for params:
// the relinearization key plus one rotation key per step. Ring kernels use
// workers() goroutines.
func newCKKSKeys(params ckks.Parameters, rotations []int, seed int64, keySet int, tr *tracer) (*ckksKeys, error) {
	k := &ckksKeys{}
	err := step(tr, "setup.context", func() error {
		var err error
		k.ctx, err = ckks.NewContext(params)
		return err
	})
	if err != nil {
		return nil, err
	}
	k.ctx.SetWorkers(workers())
	id := tr.begin("setup.keygen")
	kg := ckks.NewKeyGenerator(k.ctx, derive(seed, streamKeys, keySet))
	sk := kg.GenSecretKey()
	k.pk = kg.GenPublicKey(sk)
	k.ops = ckksOps{
		ev:  ckks.NewEvaluator(k.ctx, kg.GenEvaluationKeySet(sk, rotations, false)),
		enc: ckks.NewEncoder(k.ctx),
		dec: ckks.NewDecryptor(k.ctx, sk),
	}
	tr.end(id)
	return k, nil
}

// with returns the operations bound to the tracer tr.
func (k *ckksKeys) with(tr *tracer) ckksOps {
	o := k.ops
	o.tr = tr
	return o
}

// encryptor returns an encryptor whose randomness depends on the request
// seed alone.
func (k *ckksKeys) encryptor(seed int64, i int) *ckks.Encryptor {
	return ckks.NewEncryptor(k.ctx, k.pk, derive(seed, streamEncrypt, i%inputPool))
}

// ---------------------------------------------------------------------------
// helr-step: one HELR gradient-descent iteration, server side.

const (
	helrFeatures = 16
	helrSamples  = 256
	// HELR's degree-3 least-squares sigmoid on [-8, 8]:
	// σ(t) ≈ 0.5 + helrC1·t + helrC3·t³.
	helrC1 = 0.15012
	helrC3 = -0.0015930
)

// helrInput packs a batch feature-major: slot j·256+s holds z_{s,j} =
// y_s·x_{s,j} and the weight vector is replicated as w[j·256+s] = w_j. With
// 16·256 = N/2 slots, rotations by 256, 512, 1024 and 2048 sum the 16
// features exactly and leave sample s's inner product in all its slots; the
// fold by 1, 2, …, 128 then sums the 256 samples into slot j·256.
type helrInput struct {
	z, w []float64
	grad []float64 // plaintext reference: gradient component j
}

type helr struct {
	*ckksKeys
	seed   int64
	inputs []helrInput
}

func newHELR(seed int64, keySet int, tr *tracer) (workload, error) {
	params, err := ckks.GenParams(13, 8, 3, 3, 55, 40, 55) // N=2^13, L=8, dnum=3
	if err != nil {
		return nil, err
	}
	if params.Slots() != helrFeatures*helrSamples {
		return nil, fmt.Errorf("helr: %d slots, want %d", params.Slots(), helrFeatures*helrSamples)
	}
	var rots []int
	for k := helrSamples; k < helrFeatures*helrSamples; k <<= 1 {
		rots = append(rots, k)
	}
	for k := 1; k < helrSamples; k <<= 1 {
		rots = append(rots, k)
	}
	keys, err := newCKKSKeys(params, rots, seed, keySet, tr)
	if err != nil {
		return nil, err
	}
	h := &helr{ckksKeys: keys, seed: seed}
	for i := 0; i < inputPool; i++ {
		h.inputs = append(h.inputs, newHELRInput(prng.New(derive(seed, streamInputs, i))))
	}
	return h, nil
}

func newHELRInput(rng *prng.Rand) helrInput {
	n := helrFeatures * helrSamples
	in := helrInput{z: make([]float64, n), w: make([]float64, n), grad: make([]float64, helrFeatures)}
	w := make([]float64, helrFeatures)
	for j := range w {
		w[j] = (rng.Float64()*2 - 1) / 4
	}
	for s := 0; s < helrSamples; s++ {
		y := 1.0
		if rng.Float64() < 0.5 {
			y = -1
		}
		for j := 0; j < helrFeatures; j++ {
			in.z[j*helrSamples+s] = y * (rng.Float64()*2 - 1)
			in.w[j*helrSamples+s] = w[j]
		}
	}
	for s := 0; s < helrSamples; s++ {
		t := 0.0
		for j := 0; j < helrFeatures; j++ {
			t += in.z[j*helrSamples+s] * w[j]
		}
		sig := 0.5 + t*(helrC1+helrC3*t*t)
		for j := 0; j < helrFeatures; j++ {
			in.grad[j] += sig * in.z[j*helrSamples+s]
		}
	}
	return in
}

func (h *helr) request(i int, tr *tracer) (result, error) {
	in := h.inputs[i%inputPool]
	params := h.ctx.Params
	level := params.MaxLevel()
	// Client side, untimed: encode and encrypt the batch and the weights.
	plain := h.with(newTracer(false))
	et := h.encryptor(h.seed, i)
	ptZ, err := plain.encode(in.z, level, params.Scale)
	if err != nil {
		return result{}, err
	}
	ptW, err := plain.encode(in.w, level, params.Scale)
	if err != nil {
		return result{}, err
	}
	ctZ := plain.encrypt(et, ptZ, level, params.Scale)
	ctW := plain.encrypt(et, ptW, level, params.Scale)

	o := h.with(tr)
	done := tr.request(i)
	grad, err := h.step(o, ctZ, ctW)
	cost := done()
	if err != nil {
		return result{}, err
	}

	// Client side, untimed: decrypt and check slot j·256 against the
	// float64 reference. Dropping to level 0 first keeps the client's
	// decode off the big-integer CRT path.
	if grad, err = h.ops.ev.DropLevel(grad, 0); err != nil {
		return result{}, err
	}
	slots := plain.decode(plain.decrypt(grad), grad, params.Slots())
	got := make([]float64, helrFeatures)
	for j := range got {
		got[j] = slots[j*helrSamples]
	}
	e := absErr(got, in.grad)
	return result{cost: cost, ok: e <= ckksTolerance, maxErr: e, outputs: got}, nil
}

// step is the server's gradient computation: ip = ⟨z_s, w⟩ by MulRelin and
// an inner sum, σ(ip) = 0.5 + ip·(c1 + c3·ip²) by Horner's rule, σ·z by
// MulRelin, and the fold over the samples. Constants are added as
// plaintexts encoded at the ciphertext's own scale, so no two ciphertexts
// of different scales are ever added.
func (h *helr) step(o ckksOps, ctZ, ctW *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	slots := h.ctx.Params.Slots()
	ip, err := o.mulRelin(ctZ, ctW)
	if err != nil {
		return nil, err
	}
	if ip, err = o.rescale(ip); err != nil {
		return nil, err
	}
	if ip, err = h.rotateSum(o, ip, helrSamples, helrFeatures*helrSamples); err != nil {
		return nil, err
	}
	x2, err := o.mulRelin(ip, ip)
	if err != nil {
		return nil, err
	}
	if x2, err = o.rescale(x2); err != nil {
		return nil, err
	}
	u, err := o.mulConst(x2, helrC3)
	if err != nil {
		return nil, err
	}
	c1, err := o.encode(constant(helrC1, slots), u.Level, u.Scale)
	if err != nil {
		return nil, err
	}
	sig, err := o.mulRelin(o.addPlain(u, c1), ip)
	if err != nil {
		return nil, err
	}
	if sig, err = o.rescale(sig); err != nil {
		return nil, err
	}
	half, err := o.encode(constant(0.5, slots), sig.Level, sig.Scale)
	if err != nil {
		return nil, err
	}
	g, err := o.mulRelin(o.addPlain(sig, half), ctZ)
	if err != nil {
		return nil, err
	}
	if g, err = o.rescale(g); err != nil {
		return nil, err
	}
	return h.rotateSum(o, g, 1, helrSamples)
}

// rotateSum adds ct to its rotations by from, 2·from, … below to.
func (h *helr) rotateSum(o ckksOps, ct *ckks.Ciphertext, from, to int) (*ckks.Ciphertext, error) {
	for k := from; k < to; k <<= 1 {
		r, err := o.rotate(ct, k)
		if err != nil {
			return nil, err
		}
		if ct, err = o.add(ct, r); err != nil {
			return nil, err
		}
	}
	return ct, nil
}

func (h *helr) pbsPerRequest() int { return 0 }

func (h *helr) kernels(budget time.Duration) (map[string]float64, error) {
	return ringKernels(h.ctx, budget), nil
}

func (h *helr) close() { h.ctx.Close() }

// ckksTolerance is the absolute slot error a CKKS output may have: the
// loosest tolerance the internal/ckks tests accept for multi-level circuits.
const ckksTolerance = 1e-3

func constant(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// ---------------------------------------------------------------------------
// lola-infer: a LoLa-style dense 32→16 → square → dense 16→10 network.

const (
	lolaIn     = 32
	lolaHidden = 16
	lolaOut    = 10
)

type lolaInput struct {
	x    []float64
	want []float64 // plaintext logits
}

type lola struct {
	*ckksKeys
	seed   int64
	lt1    *ckks.LinearTransform
	lt2    *ckks.LinearTransform
	b1, b2 []float64
	inputs []lolaInput
}

func newLoLa(seed int64, keySet int, tr *tracer) (workload, error) {
	params := ckks.TestParams()
	slots := params.Slots()
	l := &lola{seed: seed}
	rng := prng.New(derive(seed, streamModel, 0))
	w1 := randomMatrix(rng, lolaHidden, lolaIn)
	w2 := randomMatrix(rng, lolaOut, lolaHidden)
	l.b1 = randomVector(rng, lolaHidden)
	l.b2 = randomVector(rng, lolaOut)
	var err error
	if l.lt1, err = ckks.NewLinearTransformFromMatrix(toComplex(w1), slots); err != nil {
		return nil, err
	}
	if l.lt2, err = ckks.NewLinearTransformFromMatrix(toComplex(w2), slots); err != nil {
		return nil, err
	}
	// Rotations come out of a map; sorting them fixes the order the keys
	// draw their randomness in, so one seed always gives the same keys.
	rots := append(l.lt1.Rotations(), l.lt2.Rotations()...)
	sort.Ints(rots)
	if l.ckksKeys, err = newCKKSKeys(params, rots, seed, keySet, tr); err != nil {
		return nil, err
	}
	for i := 0; i < inputPool; i++ {
		r := prng.New(derive(seed, streamInputs, i))
		x := make([]float64, lolaIn)
		for j := range x {
			x[j] = r.Float64()
		}
		h := matVec(w1, x)
		for j := range h {
			h[j] += l.b1[j]
			h[j] *= h[j]
		}
		out := matVec(w2, h)
		for j := range out {
			out[j] += l.b2[j]
		}
		l.inputs = append(l.inputs, lolaInput{x: x, want: out})
	}
	return l, nil
}

// request is the whole client round trip: encode and encrypt the input, the
// network, decrypt and decode, then the argmax and error check.
func (l *lola) request(i int, tr *tracer) (result, error) {
	in := l.inputs[i%inputPool]
	params := l.ctx.Params
	level := params.MaxLevel()
	et := l.encryptor(l.seed, i)
	o := l.with(tr)

	done := tr.request(i)
	logits, err := l.infer(o, et, in.x, level, params.Scale)
	if err != nil {
		done()
		return result{}, err
	}
	e := absErr(logits, in.want)
	ok := e <= ckksTolerance && argmaxAgrees(logits, in.want, ckksTolerance)
	cost := done()
	return result{cost: cost, ok: ok, maxErr: e, outputs: logits}, nil
}

func (l *lola) infer(o ckksOps, et *ckks.Encryptor, x []float64, level int, scale float64) ([]float64, error) {
	pt, err := o.encode(x, level, scale)
	if err != nil {
		return nil, err
	}
	ct := o.encrypt(et, pt, level, scale)
	h, err := l.dense(o, ct, l.lt1, l.b1)
	if err != nil {
		return nil, err
	}
	if h, err = o.mulRelin(h, h); err != nil {
		return nil, err
	}
	if h, err = o.rescale(h); err != nil {
		return nil, err
	}
	out, err := l.dense(o, h, l.lt2, l.b2)
	if err != nil {
		return nil, err
	}
	return o.decode(o.decrypt(out), out, lolaOut), nil
}

// dense applies a linear transform and adds the bias.
func (l *lola) dense(o ckksOps, ct *ckks.Ciphertext, lt *ckks.LinearTransform, bias []float64) (*ckks.Ciphertext, error) {
	y, err := o.linearTransform(ct, lt)
	if err != nil {
		return nil, err
	}
	b, err := o.encode(bias, y.Level, y.Scale)
	if err != nil {
		return nil, err
	}
	return o.addPlain(y, b), nil
}

func (l *lola) pbsPerRequest() int { return 0 }

func (l *lola) kernels(budget time.Duration) (map[string]float64, error) {
	return ringKernels(l.ctx, budget), nil
}

func (l *lola) close() { l.ctx.Close() }

// argmaxAgrees reports whether got and want pick the same class. A reference
// whose top two logits lie within 2·tol of each other has no argmax the
// tolerance can decide, so any answer agrees.
func argmaxAgrees(got, want []float64, tol float64) bool {
	best := argmax(want)
	for j := range want {
		if j != best && want[best]-want[j] <= 2*tol {
			return true
		}
	}
	return argmax(got) == best
}

func argmax(v []float64) int {
	best := 0
	for j := range v {
		if v[j] > v[best] {
			best = j
		}
	}
	return best
}

// randomMatrix draws a rows×cols weight matrix with every row scaled to L2
// norm 1/2, so the network's gain, and with it the size of its CKKS error,
// is the same for every seed.
func randomMatrix(rng *prng.Rand, rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		norm := 0.0
		for j := range m[i] {
			m[i][j] = rng.Float64()*2 - 1
			norm += m[i][j] * m[i][j]
		}
		for j := range m[i] {
			m[i][j] *= 0.5 / math.Sqrt(norm)
		}
	}
	return m
}

func randomVector(rng *prng.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = (rng.Float64()*2 - 1) / 4
	}
	return v
}

func toComplex(m [][]float64) [][]complex128 {
	out := make([][]complex128, len(m))
	for i, row := range m {
		out[i] = make([]complex128, len(row))
		for j, v := range row {
			out[i][j] = complex(v, 0)
		}
	}
	return out
}

func matVec(m [][]float64, x []float64) []float64 {
	out := make([]float64, len(m))
	for i, row := range m {
		for j, v := range row {
			out[i] += v * x[j]
		}
	}
	return out
}
