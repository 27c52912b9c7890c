package rlwe

import (
	"alchemist/internal/modmath"
	"alchemist/internal/ring"
)

// The hybrid key switch, fused and hoisted.
//
// Per digit group, a key switch runs a ModUp (Bconv), the DecompPolyMult
// accumulation against the switching key, and a final ModDown. The path
// here restructures that computation around two ideas:
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
//     never materialized and no per-step NTT remains. The decomposition
//     itself is digit-batched: one Decomposer pass converts every group to
//     both target bases, sharing the step-1 scaling (ring/decompose.go).
//
// KeySwitch is bit-identical to the eager per-group reference (one ModUp,
// NTT and reduced multiply-accumulate per digit group), which lives with the
// tests and is pinned against it under both ModDown steps by the
// fused-vs-eager tests and fuzzer. The hoisted Galois step decomposes BEFORE
// permuting where a plain rotation permutes before decomposing; both are
// valid keyswitch inputs with the same noise bound.

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

// DecomposeOnce computes the digit decomposition of x (coefficient domain,
// levels 0..level) once, for reuse across many keyswitches — the "hoisting"
// half of rotate-many workloads.
func (c *Context) DecomposeOnce(level int, x *ring.Poly) *Decomposition {
	rq, rp := c.RQ, c.RP
	levelP := rp.MaxLevel()
	groups := c.GroupsAtLevel(level)

	d, _ := c.decPool.Get().(*Decomposition)
	if d == nil {
		d = &Decomposition{
			DQ: make([]*ring.Poly, 0, c.params.Dnum),
			DP: make([]*ring.Poly, 0, c.params.Dnum),
		}
	}
	d.Level = level
	d.DQ, d.DP = d.DQ[:0], d.DP[:0]
	for g := 0; g < groups; g++ {
		d.DQ = append(d.DQ, rq.Borrow(level))  //alchemist:owns the decomposition owns its digits; ReleaseDecomposition frees them
		d.DP = append(d.DP, rp.Borrow(levelP)) //alchemist:owns the decomposition owns its digits; ReleaseDecomposition frees them
	}
	c.Dec.DecomposeAll(level, x, d.DQ, d.DP)
	for g := 0; g < groups; g++ {
		rq.NTT(level, d.DQ[g])
		rp.NTT(levelP, d.DP[g])
	}
	return d
}

// ReleaseDecomposition returns the decomposition's polynomials to the ring
// arenas and its shell to the context pool. d must not be used afterwards.
func (c *Context) ReleaseDecomposition(d *Decomposition) {
	if d == nil {
		return
	}
	for _, p := range d.DQ {
		c.RQ.Release(p)
	}
	for _, p := range d.DP {
		c.RP.Release(p)
	}
	d.DQ, d.DP = d.DQ[:0], d.DP[:0]
	c.decPool.Put(d)
}

// KeySwitch applies the hybrid key switch to the coefficient-domain
// polynomial x at the given level, returning (B, A) over Q such that
// B + A·s ≈ x·s' for swk(s' → s): one digit-batched decomposition, unreduced
// 128-bit accumulation with a single deferred reduction per channel, and the
// ModDown the parameters select. The returned polynomials come from the
// ring arena; callers that are done with them may hand them back via
// RQ.Release, and callers that keep them simply let the GC take over.
//
//alchemist:hot
func (c *Context) KeySwitch(level int, x *ring.Poly, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	d := c.DecomposeOnce(level, x)
	outB := c.RQ.Borrow(level)
	outA := c.RQ.Borrow(level)
	c.keySwitchHoisted(d, swk, 0, false, outB, outA)
	c.ReleaseDecomposition(d)
	return outB, outA //alchemist:owns the keyswitch halves are the caller's to release
}

// ApplyGalois applies the automorphism φ_k to the ciphertext (b, a) at the
// given level and switches the key back with gk = GenGaloisKey(k, ·): the
// result decrypts to φ_k of the input's phase. The returned halves come from
// the ring arena and are the caller's.
func (c *Context) ApplyGalois(level int, b, a *ring.Poly, k uint64, gk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	d := c.DecomposeOnce(level, a)
	outB, outA := c.ApplyGaloisHoisted(d, b, k, gk)
	c.ReleaseDecomposition(d)
	return outB, outA
}

// ApplyGaloisHoisted is ApplyGalois against a caller-held decomposition d
// of the A half: the permutation-fused lazy keyswitch of d plus φ_k(b).
// Decomposing before permuting is sound because the automorphism commutes
// with the RNS digit split. Safe for concurrent use with a shared read-only
// d.
func (c *Context) ApplyGaloisHoisted(d *Decomposition, b *ring.Poly, k uint64, gk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	rq := c.RQ
	level := d.Level
	outB := rq.Borrow(level)
	outA := rq.Borrow(level)
	c.keySwitchHoisted(d, gk, k, true, outB, outA)
	rot := rq.Borrow(level)
	rq.Automorphism(level, b, k, rot)
	rq.Add(level, outB, rot, outB)
	rq.Release(rot)
	return outB, outA //alchemist:owns the rotated halves are the caller's to release
}

// keySwitchHoisted runs the accumulation half of the keyswitch against a
// prepared decomposition: per digit group one lazy multiply-accumulate
// (optionally fused with the Galois permutation φ_k of the digits), then the
// single deferred reduction, the inverse transforms and the two ModDowns.
// outB/outA receive the coefficient-domain result over Q.
//
//alchemist:hot
//alchemist:domain outB:[0,q) outA:[0,q)
func (c *Context) keySwitchHoisted(d *Decomposition, swk *SwitchingKey, k uint64, perm bool, outB, outA *ring.Poly) {
	rq, rp := c.RQ, c.RP
	level := d.Level
	levelP := rp.MaxLevel()
	groups := c.GroupsAtLevel(level)

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

	c.modDown(level, bq, bp, outB)
	c.modDown(level, aq, ap, outA)

	rq.Release(bq)
	rq.Release(aq)
	rp.Release(bp)
	rp.Release(ap)
}

// MulRelin writes the relinearized product of the ciphertexts (b1, a1) and
// (b2, a2) (coefficient domain, levels 0..level) into outB/outA: the tensor
// in the NTT domain, then the key switch of its s² term with rlk. The
// inputs are copied before outB/outA are written, so they may alias them.
func (c *Context) MulRelin(level int, b1, a1, b2, a2 *ring.Poly, rlk *SwitchingKey, outB, outA *ring.Poly) {
	rq := c.RQ

	// Tensor in the NTT domain. All scratch comes from the ring arena; the
	// tensor outputs d0/d1 are written straight into outB/outA.
	tb1 := rq.Borrow(level)
	ta1 := rq.Borrow(level)
	tb2 := rq.Borrow(level)
	ta2 := rq.Borrow(level)
	rq.CopyLevel(level, b1, tb1)
	rq.CopyLevel(level, a1, ta1)
	rq.CopyLevel(level, b2, tb2)
	rq.CopyLevel(level, a2, ta2)
	rq.NTT(level, tb1)
	rq.NTT(level, ta1)
	rq.NTT(level, tb2)
	rq.NTT(level, ta2)

	d0, d1 := outB, outA
	d2 := rq.Borrow(level)
	rq.MulCoeffs(level, tb1, tb2, d0)
	rq.MulCoeffs(level, tb1, ta2, d1)
	rq.MulCoeffsAndAdd(level, ta1, tb2, d1)
	rq.MulCoeffs(level, ta1, ta2, d2)
	rq.Release(tb1)
	rq.Release(ta1)
	rq.Release(tb2)
	rq.Release(ta2)
	rq.INTT(level, d0)
	rq.INTT(level, d1)
	rq.INTT(level, d2)

	ksB, ksA := c.KeySwitch(level, d2, rlk)
	rq.Release(d2)
	rq.Add(level, d0, ksB, d0)
	rq.Add(level, d1, ksA, d1)
	rq.Release(ksB)
	rq.Release(ksA)
}

// modDown divides a keyswitch accumulator over Q·P by P: exactly
// (Ext.ModDown) when the scheme has no plaintext modulus, t-exactly
// otherwise.
//
//alchemist:hot
func (c *Context) modDown(level int, aQ, aP, out *ring.Poly) {
	if c.pToQT == nil {
		c.Ext.ModDown(level, aQ, aP, out)
		return
	}
	c.modDownT(level, aQ, aP, out)
}

// modDownT divides an accumulator over Q·P by P with the t-correction: the
// subtracted representative δ satisfies δ ≡ x (mod P) and δ ≡ 0 (mod t)
// (δ = centered([x]_P) + P·w, w ≡ -[x]_P (mod t)), so the result stays
// ≡ x (mod t) while noise only grows by ≤ t.
//
//alchemist:hot
func (c *Context) modDownT(level int, aQ, aP, out *ring.Poly) {
	n := c.RQ.N
	t := c.params.T
	// Exact centered conversion into [t, q_0..q_level]. The channel backing
	// (plus the w correction vector) comes from one scratch buffer and the
	// channel headers from a pool: the [t|Q] shape fits neither ring's
	// polynomial arena.
	flat := c.scratch.Get((level + 3) * n)
	hdr, _ := c.convHdrs.Get().(*[][]uint64)
	if hdr == nil {
		hdr = new([][]uint64)
	}
	conv := (*hdr)[:0]
	for i := 0; i < level+2; i++ {
		conv = append(conv, flat[i*n:(i+1)*n:(i+1)*n])
	}
	w := flat[(level+2)*n:]
	c.pToQT.ConvertExact(len(c.params.P)-1, aP.Coeffs, conv, level+2, true)
	convT := conv[0]
	for k := 0; k < n; k++ {
		w[k] = modmath.NegMod(convT[k], t) // w ≡ -[x]_P (mod t); P ≡ 1 (mod t)
	}
	for i := 0; i <= level; i++ {
		qi := c.RQ.Moduli[i]
		pq := c.pModQ[i]
		inv := c.pInvQ[i]
		invS := modmath.ShoupPrecomp(inv, qi)
		src, ci, dst := aQ.Coeffs[i], conv[i+1], out.Coeffs[i]
		for k := 0; k < n; k++ {
			delta := modmath.AddMod(ci[k], modmath.MulMod(w[k], pq, qi), qi)
			d := modmath.SubMod(src[k], delta, qi)
			dst[k] = modmath.MulModShoup(d, inv, invS, qi)
		}
	}
	*hdr = conv
	c.convHdrs.Put(hdr)
	c.scratch.Put(flat)
}
