package ckks

import (
	"fmt"
	"sort"
	"sync"

	"alchemist/internal/ring"
)

// LinearTransform is a slot-space matrix encoded by its generalized
// diagonals: Diags[d][j] = M[j][(j+d) mod n]. Evaluating it homomorphically
// costs one rotation and one plaintext multiplication per non-zero diagonal
// — the building block of LoLa-style dense layers and of the CoeffToSlot /
// SlotToCoeff transforms in bootstrapping.
//
// The first evaluation at each (context, level) encodes every diagonal once
// and caches it (see ltPlan), so Diags must not change after the transform
// has been evaluated. A LinearTransform is safe for concurrent use,
// including concurrent first evaluations.
type LinearTransform struct {
	Diags map[int][]complex128

	mu    sync.Mutex
	plans map[ltPlanKey]*ltPlan
}

// ltPlanKey identifies one diagonal cache: the encoding depends on the
// context's moduli and scale and on the evaluation level.
type ltPlanKey struct {
	ctx   *Context
	level int
}

// ltPlan is a transform prepared for one (context, level): every diagonal
// encoded at the context's default scale, in the NTT domain over
// Q_level ∪ P, with Shoup companions for the fixed-operand multiply. It
// costs one Q ∪ P plaintext plus companions per diagonal.
type ltPlan struct {
	zero *ltDiag  // the d = 0 diagonal, or nil
	rots []ltDiag // the rotated diagonals, by ascending step
}

// ltDiag is one cached diagonal and the Galois element of its rotation.
type ltDiag struct {
	step      int
	k         uint64
	q, qShoup *ring.Poly // over Q at the plan's level
	p, pShoup *ring.Poly // over the whole special basis P
}

// NewLinearTransformFromMatrix extracts the non-zero diagonals of an
// out×in matrix acting on the first `in` slots (out ≤ in required; the
// result lands in the first `out` slots).
func NewLinearTransformFromMatrix(m [][]complex128, slots int) (*LinearTransform, error) {
	out := len(m)
	if out == 0 {
		return nil, fmt.Errorf("ckks: empty matrix")
	}
	in := len(m[0])
	if in > slots {
		return nil, fmt.Errorf("ckks: matrix width %d exceeds %d slots", in, slots)
	}
	// Entry M[j][c] needs x[c] to land in slot j, i.e. the rotation by
	// d = (c - j) mod slots (the input is zero-padded, so wrapping is over
	// the full slot vector).
	lt := &LinearTransform{Diags: map[int][]complex128{}}
	for j := 0; j < out; j++ {
		for c := 0; c < in; c++ {
			v := m[j][c]
			if v == 0 {
				continue
			}
			d := ((c-j)%slots + slots) % slots
			if lt.Diags[d] == nil {
				lt.Diags[d] = make([]complex128, slots)
			}
			lt.Diags[d][j] = v
		}
	}
	return lt, nil
}

// Rotations returns the rotation steps the transform needs (for key
// generation), in ascending order so that key generation from one seed is
// reproducible.
func (lt *LinearTransform) Rotations() []int {
	out := make([]int, 0, len(lt.Diags))
	for d := range lt.Diags {
		if d != 0 {
			out = append(out, d)
		}
	}
	sort.Ints(out)
	return out
}

// plan returns the diagonal cache for (ctx, level), encoding it on first
// use. The lock covers the fill, so concurrent first evaluations encode
// once and share the result.
func (lt *LinearTransform) plan(ctx *Context, enc *Encoder, level int) (*ltPlan, error) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	key := ltPlanKey{ctx, level}
	if pl, ok := lt.plans[key]; ok {
		return pl, nil
	}
	rq, rp := ctx.RQ, ctx.RP
	levelP := rp.MaxLevel()
	encodeDiag := func(step int) (ltDiag, error) {
		d := ltDiag{step: step, k: rq.GaloisElementForRotation(step)}
		var err error
		if d.q, d.p, err = enc.encodeQP(lt.Diags[step], level, ctx.Params.Scale); err != nil {
			return d, err
		}
		d.qShoup, d.pShoup = rq.NewPoly(level), rp.NewPoly(levelP)
		rq.ShoupCompanion(level, d.q, d.qShoup)
		rp.ShoupCompanion(levelP, d.p, d.pShoup)
		return d, nil
	}
	pl := &ltPlan{}
	if _, ok := lt.Diags[0]; ok {
		d, err := encodeDiag(0)
		if err != nil {
			return nil, err
		}
		pl.zero = &d
	}
	for _, step := range lt.Rotations() {
		d, err := encodeDiag(step)
		if err != nil {
			return nil, err
		}
		pl.rots = append(pl.rots, d)
	}
	if lt.plans == nil {
		lt.plans = map[ltPlanKey]*ltPlan{}
	}
	lt.plans[key] = pl
	return pl, nil
}

// EvalLinearTransform applies the transform: Σ_d diag_d ⊙ rot(ct, d),
// followed by a rescale. The evaluator must hold the rotation keys returned
// by Rotations(), and enc must belong to the evaluator's context.
//
// Evaluation is double-hoisted (Bossuat et al., Eurocrypt 2021): the input's
// digit decomposition is computed once and shared by every rotation, and
// each diagonal multiplies its rotation's keyswitch accumulators before the
// ModDown, so the whole transform pays one INTT and one ModDown per
// ciphertext half instead of one per diagonal. No rotated ciphertext is
// materialized.
func (ev *Evaluator) EvalLinearTransform(ct *Ciphertext, lt *LinearTransform, enc *Encoder) (*Ciphertext, error) {
	if len(lt.Diags) == 0 {
		return nil, fmt.Errorf("ckks: transform has no diagonals")
	}
	ctx := ev.ctx
	pl, err := lt.plan(ctx, enc, ct.Level)
	if err != nil {
		return nil, err
	}
	if len(pl.rots) > 0 && ev.eks == nil {
		return nil, fmt.Errorf("ckks: rotation keys missing")
	}
	for i := range pl.rots {
		if _, ok := ev.eks.Rot[pl.rots[i].k]; !ok {
			return nil, fmt.Errorf("ckks: rotation key for step %d missing", pl.rots[i].step)
		}
	}
	accB := ctx.RQ.Borrow(ct.Level)
	accA := ctx.RQ.Borrow(ct.Level)
	ev.linearTransformHoisted(ct, pl, accB, accA)
	out, err := ev.rescale(ct.Level, accB, accA, ct.Scale*ctx.Params.Scale)
	ctx.RQ.Release(accB)
	ctx.RQ.Release(accA)
	return out, err
}

// linearTransformHoisted writes Σ_d diag_d ⊙ φ_d(ct) (coefficient domain,
// before rescaling) into outB/outA. For a rotated diagonal d with Galois
// element k:
//
//	φ_k(ct) = (φ_k(B) + ModDown(KS_B), ModDown(KS_A)),  KS = Σ_g φ_k(dec_g) ⊙ evk_g
//
// ModDown is linear up to its rounding, so the diagonal products are
// accumulated over Q ∪ P and moved down once. The Q-only terms φ_k(B) and
// the d = 0 term enter the Q ∪ P accumulators as P·x (zero over P), which
// the closing ModDown returns exactly. Every product multiplies a cached
// diagonal, so it runs on the Shoup kernel.
//
//alchemist:hot
func (ev *Evaluator) linearTransformHoisted(ct *Ciphertext, pl *ltPlan, outB, outA *ring.Poly) {
	ctx := ev.ctx
	rq, rp := ctx.RQ, ctx.RP
	level := ct.Level
	levelP := rp.MaxLevel()

	accBQ := rq.BorrowZero(level)
	accAQ := rq.BorrowZero(level)
	accBP := rp.BorrowZero(levelP)
	accAP := rp.BorrowZero(levelP)

	// P·B in the NTT domain, permuted per diagonal below.
	bP := rq.Borrow(level)
	ctx.nttTimesP(level, ct.B, bP)
	if z := pl.zero; z != nil {
		aP := rq.Borrow(level)
		ctx.nttTimesP(level, ct.A, aP)
		rq.MulCoeffsShoupAndAdd(level, bP, z.q, z.qShoup, accBQ)
		rq.MulCoeffsShoupAndAdd(level, aP, z.q, z.qShoup, accAQ)
		rq.Release(aP)
	}
	if len(pl.rots) > 0 {
		dec := ev.DecomposeOnce(level, ct.A)
		groups := ctx.GroupsAtLevel(level)
		ksBQ := rq.Borrow(level)
		ksAQ := rq.Borrow(level)
		ksBP := rp.Borrow(levelP)
		ksAP := rp.Borrow(levelP)
		rot := rq.Borrow(level)
		for i := range pl.rots {
			d := &pl.rots[i]
			key := ev.eks.Rot[d.k]
			rq.KSAccumulate(level, dec.DQ[:groups], key.BQ[:groups], key.AQ[:groups], d.k, true, ksBQ, ksAQ)
			rp.KSAccumulate(levelP, dec.DP[:groups], key.BP[:groups], key.AP[:groups], d.k, true, ksBP, ksAP)
			rq.AutomorphismNTT(level, bP, d.k, rot)
			rq.Add(level, ksBQ, rot, ksBQ)
			rq.MulCoeffsShoupAndAdd(level, ksBQ, d.q, d.qShoup, accBQ)
			rq.MulCoeffsShoupAndAdd(level, ksAQ, d.q, d.qShoup, accAQ)
			rp.MulCoeffsShoupAndAdd(levelP, ksBP, d.p, d.pShoup, accBP)
			rp.MulCoeffsShoupAndAdd(levelP, ksAP, d.p, d.pShoup, accAP)
		}
		rq.Release(rot)
		rq.Release(ksBQ)
		rq.Release(ksAQ)
		rp.Release(ksBP)
		rp.Release(ksAP)
		ev.ReleaseDecomposition(dec)
	}
	rq.Release(bP)

	rq.INTT(level, accBQ)
	rq.INTT(level, accAQ)
	rp.INTT(levelP, accBP)
	rp.INTT(levelP, accAP)
	ctx.Ext.ModDown(level, accBQ, accBP, outB)
	ctx.Ext.ModDown(level, accAQ, accAP, outA)
	rq.Release(accBQ)
	rq.Release(accAQ)
	rp.Release(accBP)
	rp.Release(accAP)
}

// nttTimesP sets out = NTT(a)·P over Q at levels 0..level (a in the
// coefficient domain).
func (ctx *Context) nttTimesP(level int, a, out *ring.Poly) {
	rq := ctx.RQ
	rq.CopyLevel(level, a, out)
	rq.NTT(level, out)
	for i := 0; i <= level; i++ {
		rq.SubRings[i].MulScalar(out.Coeffs[i], ctx.pModQ[i], out.Coeffs[i])
	}
}

// InnerSum folds the first n slots (n a power of two) so that slot 0 holds
// their sum, using log2(n) rotations. Slots beyond n must be zero if only
// the total is wanted.
func (ev *Evaluator) InnerSum(ct *Ciphertext, n int) (*Ciphertext, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ckks: InnerSum width %d must be a power of two", n)
	}
	acc := ct
	for step := n / 2; step >= 1; step >>= 1 {
		rot, err := ev.Rotate(acc, step)
		if err != nil {
			return nil, err
		}
		acc, err = ev.Add(acc, rot)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// MeanVariance computes the mean and variance of the first n slots
// homomorphically: mean = InnerSum(x)/n and var = InnerSum(x²)/n - mean².
// Costs two levels; needs the power-of-two rotation keys up to n/2 and the
// relinearization key.
func (ev *Evaluator) MeanVariance(ct *Ciphertext, n int, enc *Encoder) (mean, variance *Ciphertext, err error) {
	sum, err := ev.InnerSum(ct, n)
	if err != nil {
		return nil, nil, err
	}
	mean, err = ev.MulConst(sum, complex(1/float64(n), 0), enc)
	if err != nil {
		return nil, nil, err
	}
	sq, err := ev.MulRelin(ct, ct)
	if err != nil {
		return nil, nil, err
	}
	sq, err = ev.Rescale(sq)
	if err != nil {
		return nil, nil, err
	}
	sqSum, err := ev.InnerSum(sq, n)
	if err != nil {
		return nil, nil, err
	}
	meanSq, err := ev.MulConst(sqSum, complex(1/float64(n), 0), enc)
	if err != nil {
		return nil, nil, err
	}
	m2, err := ev.MulRelin(mean, mean)
	if err != nil {
		return nil, nil, err
	}
	m2, err = ev.Rescale(m2)
	if err != nil {
		return nil, nil, err
	}
	variance, err = ev.subApprox(meanSq, m2)
	if err != nil {
		return nil, nil, err
	}
	return mean, variance, nil
}

// EvalPolyHorner evaluates Σ coeffs[i]·x^i on the ciphertext with Horner's
// rule: one Cmult + rescale per degree. coeffs[0] is the constant term.
// Consumes len(coeffs)-1 levels.
func (ev *Evaluator) EvalPolyHorner(ct *Ciphertext, coeffs []float64, enc *Encoder) (*Ciphertext, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("ckks: empty polynomial")
	}
	n := ev.ctx.Params.Slots()
	constVec := func(v float64, level int) (*ring.Poly, error) {
		z := make([]complex128, n)
		for i := range z {
			z[i] = complex(v, 0)
		}
		return enc.Encode(z, level, ev.ctx.Params.Scale)
	}
	// acc = c_k
	acc, err := func() (*Ciphertext, error) {
		pt, err := constVec(coeffs[len(coeffs)-1], ct.Level)
		if err != nil {
			return nil, err
		}
		zero := ev.ctx.CopyCt(ct)
		ev.ctx.RQ.Sub(ct.Level, zero.B, ct.B, zero.B) // zero ciphertext
		ev.ctx.RQ.Sub(ct.Level, zero.A, ct.A, zero.A)
		return ev.AddPlain(zero, pt), nil
	}()
	if err != nil {
		return nil, err
	}
	for i := len(coeffs) - 2; i >= 0; i-- {
		prod, err := ev.MulRelin(acc, ct)
		if err != nil {
			return nil, err
		}
		prod, err = ev.Rescale(prod)
		if err != nil {
			return nil, err
		}
		pt, err := constVec(coeffs[i], prod.Level)
		if err != nil {
			return nil, err
		}
		acc = ev.AddPlain(prod, pt)
	}
	return acc, nil
}
