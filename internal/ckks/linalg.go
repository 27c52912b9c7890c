package ckks

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"alchemist/internal/errs"
	"alchemist/internal/ring"
	"alchemist/internal/rlwe"
)

// LinearTransform is a slot-space matrix encoded by its generalized
// diagonals: Diags[d][j] = M[j][(j+d) mod n]. It is evaluated on the
// baby-step/giant-step schedule (see EvalLinearTransform), so a transform
// with D non-zero diagonals costs about 2√D keyswitches instead of D — the
// building block of LoLa-style dense layers and of the CoeffToSlot /
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

// ltPlan is a transform prepared for one (context, level): the baby and
// giant steps of the split, and every diagonal pre-rotated by its giant
// step and encoded at the context's default scale, in the NTT domain over
// Q_level ∪ P, with Shoup companions for the fixed-operand multiply. It
// costs one Q ∪ P plaintext plus companions per diagonal.
type ltPlan struct {
	babies []ltStep  // ascending; babies[0] is step 0 when a diagonal uses it
	giants []ltGiant // ascending
}

// ltStep is one rotation of the schedule and its Galois element.
type ltStep struct {
	step int
	k    uint64
}

// ltGiant is one giant step and the diagonals that share it.
type ltGiant struct {
	ltStep
	diags []ltDiag
}

// ltDiag is one cached diagonal, already rotated by −giant, and the baby
// step it multiplies.
type ltDiag struct {
	baby      int        // index into ltPlan.babies
	q, qShoup *ring.Poly // over Q at the plan's level
	p, pShoup *ring.Poly // over the whole special basis P
}

// NewLinearTransformFromMatrix extracts the non-zero diagonals of an
// out×in matrix acting on the first `in` slots (out ≤ in required; the
// result lands in the first `out` slots).
func NewLinearTransformFromMatrix(m [][]complex128, slots int) (*LinearTransform, error) {
	out := len(m)
	if out == 0 {
		return nil, fmt.Errorf("ckks: empty matrix: %w", errs.ErrBadConfig)
	}
	in := len(m[0])
	if in > slots {
		return nil, fmt.Errorf("ckks: matrix width %d exceeds %d slots: %w", in, slots, errs.ErrBadConfig)
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

// ltGiantCost is the cost of one giant step in units of one baby step, the
// weight bsgsSplit minimises #babies + ltGiantCost·#giants with. A baby step
// is one keyswitch accumulation over Q ∪ P against the shared decomposition
// of the input. A giant step runs the same accumulation against a fresh
// decomposition and adds what the babies share: the inner sum's four INTTs
// and two ModDowns, the ModUp and NTTs of that decomposition, and the NTT of
// the B half. On the LoLa shapes 3 measured faster than 2.
const ltGiantCost = 3

// bsgsTerm places diagonal diag at giant step giant and baby step baby:
// diag ≡ giant + baby (mod slots), giant a multiple of n1 and 0 ≤ baby < n1.
type bsgsTerm struct{ diag, giant, baby int }

// bsgsPlace splits the signed diagonal s ∈ (−slots/2, slots/2] for baby
// width n1. A giant step of −slots is a full turn, the identity, so it is
// folded into giant 0 (its baby is then the unsigned diagonal).
func bsgsPlace(s, n1, slots int) (giant, baby int) {
	giant = s / n1 * n1
	if giant > s {
		giant -= n1 // floor division for negative s
	}
	if giant == -slots {
		return 0, s + slots
	}
	return giant, s - giant
}

// bsgsSplit chooses the baby width n1 for the diagonal set ds (distinct, in
// [0, slots)) and places every diagonal, signed toward the nearer wrap, at
// a (giant, baby) pair. n1 minimises the keyswitch cost: the non-zero baby
// steps plus ltGiantCost per non-zero giant step (the zero steps need no
// keyswitch). The terms come back ordered by (giant, baby).
//
// n1 = slots is the all-babies schedule (every giant folds to 0). Below it,
// the cost stops changing once n1 exceeds the signed span of the set and
// both of its ends (every non-negative diagonal is then a baby of giant 0,
// every negative one a distinct baby of giant −n1), so the search stops
// there too.
func bsgsSplit(ds []int, slots int) (n1 int, terms []bsgsTerm) {
	signed := make([]int, len(ds))
	lo, hi := 0, 0
	for j, d := range ds {
		s := d
		if s > slots/2 {
			s -= slots
		}
		signed[j] = s
		if j == 0 || s < lo {
			lo = s
		}
		if j == 0 || s > hi {
			hi = s
		}
	}
	limit := min(max(hi-lo+1, hi+1, 1-lo), slots-1)
	// seen[b] == width marks baby b as used at the current width.
	seen := make([]int, slots)
	cost := func(width int) int {
		c := 0
		giants := map[int]bool{}
		for _, s := range signed {
			g, b := bsgsPlace(s, width, slots)
			if b != 0 && seen[b] != width {
				seen[b] = width
				c++
			}
			if g != 0 && !giants[g] {
				giants[g] = true
				c += ltGiantCost
			}
		}
		return c
	}
	n1, best := slots, cost(slots)
	for width := 1; width <= limit; width++ {
		if c := cost(width); c < best {
			n1, best = width, c
		}
	}
	terms = make([]bsgsTerm, len(ds))
	for j, s := range signed {
		g, b := bsgsPlace(s, n1, slots)
		terms[j] = bsgsTerm{diag: ds[j], giant: g, baby: b}
	}
	sort.Slice(terms, func(a, b int) bool {
		if terms[a].giant != terms[b].giant {
			return terms[a].giant < terms[b].giant
		}
		return terms[a].baby < terms[b].baby
	})
	return n1, terms
}

// split is bsgsSplit over the transform's diagonals.
func (lt *LinearTransform) split() []bsgsTerm {
	ds := make([]int, 0, len(lt.Diags))
	slots := 0
	for d, v := range lt.Diags {
		ds = append(ds, d)
		slots = len(v)
	}
	sort.Ints(ds)
	_, terms := bsgsSplit(ds, slots)
	return terms
}

// Rotations returns the rotation steps the transform needs (for key
// generation): the non-zero baby and giant steps of its split, in ascending
// order so that key generation from one seed is reproducible.
func (lt *LinearTransform) Rotations() []int {
	set := map[int]bool{}
	for _, t := range lt.split() {
		if t.baby != 0 {
			set[t.baby] = true
		}
		if t.giant != 0 {
			set[t.giant] = true
		}
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
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
	terms := lt.split()

	pl := &ltPlan{}
	babies := make([]int, len(terms))
	for j, t := range terms {
		babies[j] = t.baby
	}
	sort.Ints(babies)
	babyIndex := map[int]int{}
	for _, b := range slices.Compact(babies) {
		babyIndex[b] = len(pl.babies)
		pl.babies = append(pl.babies, ltStep{step: b, k: rq.GaloisElementForRotation(b)})
	}

	for _, t := range terms {
		if n := len(pl.giants); n == 0 || pl.giants[n-1].step != t.giant {
			pl.giants = append(pl.giants, ltGiant{ltStep: ltStep{step: t.giant, k: rq.GaloisElementForRotation(t.giant)}})
		}
		// ρ_{−g}(diag)[j] = diag[j − g]: the giant rotation restores it.
		diag := lt.Diags[t.diag]
		slots := len(diag)
		rotated := make([]complex128, slots)
		for j := range rotated {
			rotated[j] = diag[((j-t.giant)%slots+slots)%slots]
		}
		d := ltDiag{baby: babyIndex[t.baby]}
		var err error
		if d.q, d.p, err = enc.encodeQP(rotated, level, ctx.Params.Scale); err != nil {
			return nil, err
		}
		d.qShoup, d.pShoup = rq.NewPoly(level), rp.NewPoly(levelP)
		rq.ShoupCompanion(level, d.q, d.qShoup)
		rp.ShoupCompanion(levelP, d.p, d.pShoup)
		g := &pl.giants[len(pl.giants)-1]
		g.diags = append(g.diags, d)
	}
	if lt.plans == nil {
		lt.plans = map[ltPlanKey]*ltPlan{}
	}
	lt.plans[key] = pl
	return pl, nil
}

// EvalLinearTransform applies the transform: Σ_d diag_d ⊙ rot(ct, d),
// followed by a rescale. The evaluator must hold the rotation keys returned
// by Rotations(), and enc must belong to the evaluator's context. A missing
// key is reported as errs.ErrBadConfig before anything is borrowed.
//
// Evaluation follows the baby-step/giant-step schedule with double hoisting
// (Bossuat et al., Eurocrypt 2021). Each diagonal d splits as d = g + i with
// g a multiple of n1 and 0 ≤ i < n1, and
//
//	Σ_d diag_d ⊙ ρ_d(x) = Σ_g ρ_g( Σ_i ρ_{−g}(diag_{g+i}) ⊙ ρ_i(x) ),
//
// so the transform pays one keyswitch per baby step i and one per giant
// step g instead of one per diagonal. The baby rotations share one digit
// decomposition of the input and stay over Q ∪ P (no ModDown); each giant
// step's inner sum is moved down once, decomposed, and keyswitched straight
// into the Q ∪ P output accumulators, which one INTT and one ModDown per
// ciphertext half close before the rescale. No rotated ciphertext is
// materialized.
func (ev *Evaluator) EvalLinearTransform(ct *Ciphertext, lt *LinearTransform, enc *Encoder) (*Ciphertext, error) {
	if len(lt.Diags) == 0 {
		return nil, fmt.Errorf("ckks: transform has no diagonals: %w", errs.ErrBadConfig)
	}
	ctx := ev.ctx
	pl, err := lt.plan(ctx, enc, ct.Level)
	if err != nil {
		return nil, err
	}
	for _, b := range pl.babies {
		if err := ev.checkRotationKey(b); err != nil {
			return nil, err
		}
	}
	for i := range pl.giants {
		if err := ev.checkRotationKey(pl.giants[i].ltStep); err != nil {
			return nil, err
		}
	}
	accB := ctx.RQ.Borrow(ct.Level)
	accA := ctx.RQ.Borrow(ct.Level)
	ev.linearTransformBSGS(ct, pl, accB, accA)
	out, err := ev.rescale(ct.Level, accB, accA, ct.Scale*ctx.Params.Scale)
	ctx.RQ.Release(accB)
	ctx.RQ.Release(accA)
	return out, err
}

// checkRotationKey reports a missing key for a non-zero step.
func (ev *Evaluator) checkRotationKey(s ltStep) error {
	if s.step == 0 {
		return nil
	}
	if ev.eks != nil {
		if _, ok := ev.eks.Rot[s.k]; ok {
			return nil
		}
	}
	return fmt.Errorf("ckks: rotation key for step %d missing: %w", s.step, errs.ErrBadConfig)
}

// babyCt is one baby-step rotation P·ρ_i(ct) in the NTT domain over
// Q ∪ P, before ModDown. The zero step is P·ct, which vanishes over P, so
// its bp/ap are nil.
type babyCt struct{ bq, aq, bp, ap *ring.Poly }

// linearTransformBSGS writes Σ_d diag_d ⊙ φ_d(ct) (coefficient domain,
// before rescaling) into outB/outA on the baby-step/giant-step schedule.
// For a non-zero step with Galois element k, the rotation of a ciphertext
// (b, a) over Q ∪ P, scaled by P, is
//
//	P·φ_k(b, a) ≈ (KS_B + P·φ_k(b), KS_A),  KS = Σ_grp φ_k(dec_grp) ⊙ evk_grp
//
// where the Q-only term P·φ_k(b) vanishes over P; the closing ModDown
// divides the P back out. Every diagonal product multiplies a cached
// diagonal, so it runs on the Shoup kernel.
//
//alchemist:hot
func (ev *Evaluator) linearTransformBSGS(ct *Ciphertext, pl *ltPlan, outB, outA *ring.Poly) {
	ctx := ev.ctx
	rq, rp := ctx.RQ, ctx.RP
	level := ct.Level
	levelP := rp.MaxLevel()
	groups := ctx.GroupsAtLevel(level)

	babies := ev.babySteps(ct, pl)

	accBQ := rq.BorrowZero(level)
	accAQ := rq.BorrowZero(level)
	accBP := rp.BorrowZero(levelP)
	accAP := rp.BorrowZero(levelP)
	// The inner sum of one giant step, then its keyswitch outputs.
	inBQ := rq.Borrow(level)
	inAQ := rq.Borrow(level)
	inBP := rp.Borrow(levelP)
	inAP := rp.Borrow(levelP)
	c0 := rq.Borrow(level)
	c1 := rq.Borrow(level)
	for gi := range pl.giants {
		g := &pl.giants[gi]
		if g.step == 0 {
			innerSum(rq, rp, level, levelP, g.diags, *babies, accBQ, accAQ, accBP, accAP)
			continue
		}
		rq.Zero(level, inBQ)
		rq.Zero(level, inAQ)
		rp.Zero(levelP, inBP)
		rp.Zero(levelP, inAP)
		innerSum(rq, rp, level, levelP, g.diags, *babies, inBQ, inAQ, inBP, inAP)
		rq.INTT(level, inBQ)
		rq.INTT(level, inAQ)
		rp.INTT(levelP, inBP)
		rp.INTT(levelP, inAP)
		ctx.Ext.ModDown(level, inBQ, inBP, c0)
		ctx.Ext.ModDown(level, inAQ, inAP, c1)

		// ρ_g(c0, c1), scaled by P, added into the output accumulators.
		key := ev.eks.Rot[g.k]
		dec := ctx.DecomposeOnce(level, c1)
		rq.KSAccumulate(level, dec.DQ[:groups], key.BQ[:groups], key.AQ[:groups], g.k, true, inBQ, inAQ)
		rp.KSAccumulate(levelP, dec.DP[:groups], key.BP[:groups], key.AP[:groups], g.k, true, inBP, inAP)
		ctx.ReleaseDecomposition(dec)
		rq.Add(level, accBQ, inBQ, accBQ)
		rq.Add(level, accAQ, inAQ, accAQ)
		rp.Add(levelP, accBP, inBP, accBP)
		rp.Add(levelP, accAP, inAP, accAP)
		ctx.NTTTimesP(level, c0, c0)
		rq.AutomorphismNTT(level, c0, g.k, c1)
		rq.Add(level, accBQ, c1, accBQ)
	}
	rq.Release(inBQ)
	rq.Release(inAQ)
	rp.Release(inBP)
	rp.Release(inAP)
	rq.Release(c0)
	rq.Release(c1)
	ev.releaseBabySteps(babies)

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

// innerSum adds Σ diag ⊙ baby over the giant step's diagonals into the
// Q ∪ P accumulators; the zero baby's P half is zero and skipped.
//
//alchemist:hot
func innerSum(rq, rp *ring.Ring, level, levelP int, diags []ltDiag, babies []babyCt, accBQ, accAQ, accBP, accAP *ring.Poly) {
	for i := range diags {
		d := &diags[i]
		b := &babies[d.baby]
		rq.MulCoeffsShoupAndAdd(level, b.bq, d.q, d.qShoup, accBQ)
		rq.MulCoeffsShoupAndAdd(level, b.aq, d.q, d.qShoup, accAQ)
		if b.bp != nil {
			rp.MulCoeffsShoupAndAdd(levelP, b.bp, d.p, d.pShoup, accBP)
			rp.MulCoeffsShoupAndAdd(levelP, b.ap, d.p, d.pShoup, accAP)
		}
	}
}

// babySteps computes the plan's baby-step rotations of ct over one shared
// decomposition of ct.A. Hand the result back with releaseBabySteps; the
// polynomials come from the ring arenas and the slice from the context
// pool, so the steady state allocates nothing.
func (ev *Evaluator) babySteps(ct *Ciphertext, pl *ltPlan) *[]babyCt {
	ctx := ev.ctx
	rq, rp := ctx.RQ, ctx.RP
	level := ct.Level
	levelP := rp.MaxLevel()
	groups := ctx.GroupsAtLevel(level)

	babies, _ := ctx.babyPool.Get().(*[]babyCt)
	if babies == nil {
		babies = new([]babyCt)
	}
	*babies = (*babies)[:0]

	// P·B in the NTT domain, permuted per baby step below.
	bP := rq.Borrow(level)
	ctx.NTTTimesP(level, ct.B, bP)
	var dec *rlwe.Decomposition
	if len(pl.babies) > 1 || pl.babies[0].step != 0 {
		dec = ctx.DecomposeOnce(level, ct.A)
	}
	for _, s := range pl.babies {
		bq := rq.Borrow(level)
		aq := rq.Borrow(level)
		if s.step == 0 {
			rq.CopyLevel(level, bP, bq)
			ctx.NTTTimesP(level, ct.A, aq)
			*babies = append(*babies, babyCt{bq: bq, aq: aq}) //alchemist:owns the baby steps own their halves; releaseBabySteps frees them
			continue
		}
		bp := rp.Borrow(levelP)
		ap := rp.Borrow(levelP)
		key := ev.eks.Rot[s.k]
		rq.KSAccumulate(level, dec.DQ[:groups], key.BQ[:groups], key.AQ[:groups], s.k, true, bq, aq)
		rp.KSAccumulate(levelP, dec.DP[:groups], key.BP[:groups], key.AP[:groups], s.k, true, bp, ap)
		rot := rq.Borrow(level)
		rq.AutomorphismNTT(level, bP, s.k, rot)
		rq.Add(level, bq, rot, bq)
		rq.Release(rot)
		*babies = append(*babies, babyCt{bq: bq, aq: aq, bp: bp, ap: ap}) //alchemist:owns the baby steps own their halves; releaseBabySteps frees them
	}
	ctx.ReleaseDecomposition(dec)
	rq.Release(bP)
	return babies
}

// releaseBabySteps returns the baby steps' polynomials to the ring arenas
// and the slice to the context pool. babies must not be used afterwards.
func (ev *Evaluator) releaseBabySteps(babies *[]babyCt) {
	ctx := ev.ctx
	for _, b := range *babies {
		ctx.RQ.Release(b.bq)
		ctx.RQ.Release(b.aq)
		ctx.RP.Release(b.bp)
		ctx.RP.Release(b.ap)
	}
	*babies = (*babies)[:0]
	ctx.babyPool.Put(babies)
}

// InnerSum folds the first n slots (n a power of two) so that slot 0 holds
// their sum, using log2(n) rotations. Slots beyond n must be zero if only
// the total is wanted.
func (ev *Evaluator) InnerSum(ct *Ciphertext, n int) (*Ciphertext, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ckks: InnerSum width %d must be a power of two: %w", n, errs.ErrBadConfig)
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
		return nil, fmt.Errorf("ckks: empty polynomial: %w", errs.ErrBadConfig)
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
