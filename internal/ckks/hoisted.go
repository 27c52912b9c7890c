package ckks

import (
	"fmt"

	"alchemist/internal/errs"
	"alchemist/internal/ring"
)

// Fused lazy keyswitching and hoisted rotations.
//
// The eager KeySwitch (evaluator.go, kept as the reference path) converts,
// transforms and reduce-accumulates one digit group at a time. The fused path
// here restructures the same computation around two ideas:
//
//   - Lazy accumulation: the DecompPolyMult inner products Σ_g d_g ⊙ evk_g
//     run as unreduced 128-bit sums across all digit groups with ONE deferred
//     Barrett fold per coefficient — instead of a Barrett reduction and a
//     conditional-subtract per term. The register-resident inner product
//     lives in ring.KSAccumulate (ring/ksacc.go), with ring/lazy128.go
//     providing the general Acc128 substrate.
//   - Hoisting: the digit decomposition (ModUp + NTT) of the input runs ONCE
//     (DecomposeOnce) and is shared by any number of rotations; each rotation
//     applies its Galois permutation inside the NTT-domain multiply-
//     accumulate (KSAccumulate's gather variant), so the permuted digits are
//     never materialized and no per-step NTT remains. The decomposition itself is
//     digit-batched: one Decomposer pass converts every group to both target
//     bases, sharing the step-1 scaling (ring/decompose.go).
//
// KeySwitchFused is bit-identical to the eager KeySwitch (pinned by the
// fused-vs-eager tests and fuzzers). The hoisted rotations decompose BEFORE
// permuting where the plain path permutes before decomposing; both are valid
// keyswitch inputs with the same noise bound, and the rotation tests compare
// them to within the noise tolerance.

// Decomposition is the reusable ModUp expansion of one polynomial: per digit
// group, the digit extended to the working Q basis and to the special basis
// P, both in the NTT domain. Produce with DecomposeOnce, hand back with
// ReleaseDecomposition; the polynomials come from the ring arenas and the
// shells are pooled, so the steady state allocates nothing.
type Decomposition struct {
	Level int
	DQ    []*ring.Poly
	DP    []*ring.Poly
}

// DecomposeOnce computes the digit decomposition of c (coefficient domain,
// levels 0..level) once, for reuse across many keyswitches — the "hoisting"
// half of rotate-many workloads.
func (ev *Evaluator) DecomposeOnce(level int, c *ring.Poly) *Decomposition {
	ctx := ev.ctx
	rq, rp := ctx.RQ, ctx.RP
	levelP := rp.MaxLevel()
	groups := ctx.GroupsAtLevel(level)

	d, _ := ctx.decPool.Get().(*Decomposition)
	if d == nil {
		d = &Decomposition{
			DQ: make([]*ring.Poly, 0, ctx.Params.Dnum),
			DP: make([]*ring.Poly, 0, ctx.Params.Dnum),
		}
	}
	d.Level = level
	d.DQ, d.DP = d.DQ[:0], d.DP[:0]
	for g := 0; g < groups; g++ {
		d.DQ = append(d.DQ, rq.Borrow(level))  //alchemist:owns the decomposition owns its digits; ReleaseDecomposition frees them
		d.DP = append(d.DP, rp.Borrow(levelP)) //alchemist:owns the decomposition owns its digits; ReleaseDecomposition frees them
	}
	ctx.Dec.DecomposeAll(level, c, d.DQ, d.DP)
	for g := 0; g < groups; g++ {
		rq.NTT(level, d.DQ[g])
		rp.NTT(levelP, d.DP[g])
	}
	return d
}

// ReleaseDecomposition returns the decomposition's polynomials to the ring
// arenas and its shell to the context pool. d must not be used afterwards.
func (ev *Evaluator) ReleaseDecomposition(d *Decomposition) {
	if d == nil {
		return
	}
	ctx := ev.ctx
	for _, p := range d.DQ {
		ctx.RQ.Release(p)
	}
	for _, p := range d.DP {
		ctx.RP.Release(p)
	}
	d.DQ, d.DP = d.DQ[:0], d.DP[:0]
	ctx.decPool.Put(d)
}

// KeySwitchFused is the lazy-accumulation keyswitch: same contract and
// bit-identical output as the eager KeySwitch, restructured as one
// digit-batched decomposition followed by unreduced 128-bit accumulation
// with a single deferred reduction per channel.
//
//alchemist:hot
func (ev *Evaluator) KeySwitchFused(level int, c *ring.Poly, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	d := ev.DecomposeOnce(level, c)
	outB := ev.ctx.RQ.Borrow(level)
	outA := ev.ctx.RQ.Borrow(level)
	ev.keySwitchHoisted(d, swk, 0, false, outB, outA)
	ev.ReleaseDecomposition(d)
	return outB, outA //alchemist:owns the keyswitch halves are the caller's to release
}

// keySwitchHoisted runs the accumulation half of the keyswitch against a
// prepared decomposition: per digit group one lazy multiply-accumulate
// (optionally fused with the Galois permutation φ_k of the digits), then the
// single deferred reduction, the inverse transforms and the two ModDowns.
// outB/outA receive the coefficient-domain result over Q.
//
//alchemist:hot
//alchemist:domain outB:[0,q) outA:[0,q)
func (ev *Evaluator) keySwitchHoisted(d *Decomposition, swk *SwitchingKey, k uint64, perm bool, outB, outA *ring.Poly) {
	ctx := ev.ctx
	rq, rp := ctx.RQ, ctx.RP
	level := d.Level
	levelP := rp.MaxLevel()
	groups := ctx.GroupsAtLevel(level)

	// KSAccumulate is the register-resident composition of the Acc128 kernels
	// (MulCoeffsLazy128[Auto] per group + ReduceAcc128): both key halves per
	// digit load, the 128-bit sums held in registers across all groups, the
	// outputs written once already folded. Bit-identical to the Acc128
	// pipeline (ring/ksacc.go).
	bq := rq.Borrow(level)
	aq := rq.Borrow(level)
	bp := rp.Borrow(levelP)
	ap := rp.Borrow(levelP)

	rq.KSAccumulate(level, d.DQ[:groups], swk.BQ[:groups], swk.AQ[:groups], k, perm, bq, aq)
	rp.KSAccumulate(levelP, d.DP[:groups], swk.BP[:groups], swk.AP[:groups], k, perm, bp, ap)

	rq.INTT(level, bq)
	rq.INTT(level, aq)
	rp.INTT(levelP, bp)
	rp.INTT(levelP, ap)

	ctx.Ext.ModDown(level, bq, bp, outB)
	ctx.Ext.ModDown(level, aq, ap, outA)

	rq.Release(bq)
	rq.Release(aq)
	rp.Release(bp)
	rp.Release(ap)
}

// RotateHoisted rotates ct by every step in steps, sharing one digit
// decomposition across all of them ("hoisting"): the expensive ModUp + NTT
// of the A polynomial runs once, and each rotation is only a permuted lazy
// accumulation against its key plus a ModDown. The automorphism commutes
// with the RNS decomposition (it is a coefficient permutation), which is
// what makes the sharing sound. This is the software counterpart of the
// BSP-L=n+ schedules in the accelerator model.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, steps []int) (map[int]*Ciphertext, error) {
	outs := make([]*Ciphertext, len(steps))
	if err := ev.RotateHoistedInto(ct, steps, outs); err != nil {
		return nil, err
	}
	m := make(map[int]*Ciphertext, len(steps))
	for i, step := range steps {
		m[step] = outs[i]
	}
	return m, nil
}

// RotateHoistedInto is the allocation-free core of RotateHoisted: outs[i]
// receives the rotation of ct by steps[i] (shells and polynomials from the
// context pools; len(outs) must equal len(steps)).
func (ev *Evaluator) RotateHoistedInto(ct *Ciphertext, steps []int, outs []*Ciphertext) error {
	d := ev.DecomposeOnce(ct.Level, ct.A)
	err := ev.RotateHoistedWith(ct, d, steps, outs)
	ev.ReleaseDecomposition(d)
	return err
}

// RotateHoistedWith applies the rotations against a caller-held
// decomposition of ct.A, allowing the same decomposition to be shared across
// multiple batches. Safe for concurrent use with a shared read-only d.
func (ev *Evaluator) RotateHoistedWith(ct *Ciphertext, d *Decomposition, steps []int, outs []*Ciphertext) error {
	if ev.eks == nil {
		return fmt.Errorf("ckks: rotation keys missing: %w", errs.ErrBadConfig)
	}
	if len(outs) != len(steps) {
		return fmt.Errorf("ckks: %d outputs for %d steps: %w", len(outs), len(steps), errs.ErrBadConfig)
	}
	ctx := ev.ctx
	rq := ctx.RQ
	level := ct.Level

	// Resolve every rotation key first, so no arena state is held across an
	// error return. (The work loop re-resolves instead of caching into a
	// slice: the Galois element is a few shifts and the map hit is cheap,
	// and the steady state stays allocation-free.)
	for _, step := range steps {
		if _, ok := ev.eks.Rot[rq.GaloisElementForRotation(step)]; !ok {
			return fmt.Errorf("ckks: rotation key for step %d missing: %w", step, errs.ErrBadConfig)
		}
	}

	for si, step := range steps {
		k := rq.GaloisElementForRotation(step)
		key := ev.eks.Rot[k]
		bp := rq.Borrow(level)
		outA := rq.Borrow(level)
		ev.keySwitchHoisted(d, key, k, true, bp, outA)
		// Add the rotated B part onto the keyswitched B.
		rot := rq.Borrow(level)
		rq.Automorphism(level, ct.B, k, rot)
		rq.Add(level, bp, rot, bp)
		rq.Release(rot)
		outs[si] = ctx.wrapCt(bp, outA, level, ct.Scale) //alchemist:owns each output ciphertext wraps its bp/outA; the caller Recycles them
	}
	return nil
}
