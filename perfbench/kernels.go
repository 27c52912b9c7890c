package main

import (
	"math/bits"
	"time"

	"alchemist/internal/ckks"
	"alchemist/internal/ring"
)

// ringKernel is one ring kernel called alone, with its computed operation
// count and bytes moved (inputs read plus outputs written, 8 bytes a word;
// twiddle and key tables are not counted).
type ringKernel struct {
	name  string
	unit  string // what ops counts
	ops   float64
	bytes float64
	run   func()
}

// ringKernels times each ring kernel at the shape of ctx (its full modulus
// chain, N, and digit groups) with one worker and with two, alternating the
// two settings batch by batch so drift hits both alike. It reports the
// per-call time at one worker, the two-worker speedup, and the computed
// operation count and bytes of each kernel.
func ringKernels(ctx *ckks.Context, budget time.Duration) map[string]float64 {
	params := ctx.Params
	rq, rp := ctx.RQ, ctx.RP
	level, levelP := params.MaxLevel(), rp.MaxLevel()
	n := float64(params.N())
	limbs := float64(level + 1)
	k := float64(len(params.P))
	alpha := params.Alpha()
	groups := ctx.GroupsAtLevel(level)

	sq, sp := ring.NewSampler(rq, 1), ring.NewSampler(rp, 2)
	uniform := func() *ring.Poly {
		p := rq.NewPoly(level)
		sq.Uniform(level, p)
		return p
	}
	a, b, c, out, outB, outA := uniform(), uniform(), uniform(), rq.NewPoly(level), rq.NewPoly(level), rq.NewPoly(level)
	aP, outP := rp.NewPoly(levelP), rp.NewPoly(levelP)
	sp.Uniform(levelP, aP)
	d, kB, kA := make([]*ring.Poly, groups), make([]*ring.Poly, groups), make([]*ring.Poly, groups)
	for g := range d {
		d[g], kB[g], kA[g] = uniform(), uniform(), uniform()
	}
	gal := rq.GaloisElementForRotation(1)
	bc := ring.NewBasisConverter(params.Q[:alpha], params.P)
	bc.BindScheduler(rq)

	butterflies := limbs * n / 2 * float64(bits.Len(uint(params.N()))-1)
	kernels := []ringKernel{
		{"ntt", "butterflies", butterflies, 2 * limbs * n * 8, func() { rq.NTT(level, c) }},
		{"intt", "butterflies", butterflies, 2 * limbs * n * 8, func() { rq.INTT(level, c) }},
		{"automorphism_ntt", "words", limbs * n, 2 * limbs * n * 8, func() { rq.AutomorphismNTT(level, a, gal, out) }},
		{"modup", "macs", n * limbs * (k + 1), 8 * n * (limbs + k), func() { ctx.Ext.ModUp(level, a, outP) }},
		{"moddown", "macs", n * (k*(limbs+1) + limbs), 8 * n * (2*limbs + k), func() { ctx.Ext.ModDown(level, a, aP, out) }},
		{"bconv", "macs", n * float64(alpha) * (k + 1), 8 * n * (float64(alpha) + k), func() { bc.Convert(alpha-1, a.Coeffs[:alpha], outP.Coeffs) }},
		{"ks_accumulate", "products", 2 * float64(groups) * limbs * n, 8 * n * limbs * (3*float64(groups) + 2),
			func() { rq.KSAccumulate(level, d, kB, kA, gal, true, outB, outA) }},
		{"mul_coeffs", "products", limbs * n, 3 * limbs * n * 8, func() { rq.MulCoeffs(level, a, b, out) }},
		{"mul_coeffs_add", "products", limbs * n, 4 * limbs * n * 8, func() { rq.MulCoeffsAndAdd(level, a, b, out) }},
	}

	m := map[string]float64{}
	defer ctx.SetWorkers(workers())
	per := budget / time.Duration(len(kernels))
	for _, kern := range kernels {
		t1, t2 := timeWorkers(per, kern.run, ctx.SetWorkers)
		pre := "ring." + kern.name
		m[pre+".us"] = t1 * 1e6
		m[pre+".speedup_w2"] = t1 / t2
		m[pre+"."+kern.unit] = kern.ops
		m[pre+".bytes"] = kern.bytes
	}
	return m
}

// timeWorkers times f at one and two workers, alternating batches between
// the two settings, and returns the median seconds per call of each.
func timeWorkers(budget time.Duration, f func(), setWorkers func(int)) (one, two float64) {
	setWorkers(1)
	f()
	reps := batchSize(budget/20, f)
	var s1, s2 []float64
	for start := time.Now(); time.Since(start) < budget || len(s1) < 3; {
		setWorkers(1)
		s1 = append(s1, timeBatch(reps, f))
		setWorkers(2)
		s2 = append(s2, timeBatch(reps, f))
	}
	return median(s1), median(s2)
}

// timeCall returns the median seconds per call of f over batches run for
// about budget.
func timeCall(budget time.Duration, f func()) float64 {
	f()
	reps := batchSize(budget/10, f)
	var s []float64
	for start := time.Now(); time.Since(start) < budget || len(s) < 3; {
		s = append(s, timeBatch(reps, f))
	}
	return median(s)
}

// batchSize returns how many calls of f take about target (at least one).
func batchSize(target time.Duration, f func()) int {
	per := timeBatch(1, f)
	reps := int(target.Seconds() / per)
	if reps < 1 {
		reps = 1
	}
	return reps
}

// timeBatch returns the mean seconds per call of reps calls of f.
func timeBatch(reps int, f func()) float64 {
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start).Seconds() / float64(reps)
}
