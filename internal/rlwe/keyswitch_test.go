package rlwe

import (
	"sort"
	"sync"
	"testing"

	"alchemist/internal/modmath"
	"alchemist/internal/ring"
)

// keySwitchEager is the reference the fused KeySwitch is pinned against:
// per digit group one ModUp (separate conversions to Q and to P), one NTT
// pair and a reduced multiply-accumulate, then the reduction-per-term
// ModDown (t = 0) or the shared t-exact ModDown (t > 0). It keeps the eager
// structure end to end so the fused-vs-eager comparison covers the whole
// lazy pipeline: digit batching, identity-channel copies, 128-bit
// accumulation and the lazy ModDown.
func keySwitchEager(c *Context, level int, x *ring.Poly, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	rq, rp := c.RQ, c.RP
	levelP := rp.MaxLevel()

	accBQ := rq.BorrowZero(level) // NTT domain accumulators
	accAQ := rq.BorrowZero(level)
	accBP := rp.BorrowZero(levelP)
	accAP := rp.BorrowZero(levelP)
	dQ := rq.Borrow(level)
	dP := rp.Borrow(levelP)
	for g := 0; g < c.GroupsAtLevel(level); g++ {
		lo, hi := c.Dec.GroupRange(g, level)
		digits := x.Coeffs[lo:hi] // residues of digit group g (coefficient domain)
		// ModUp: extend the digit to the full Q_level ∪ P basis. The
		// conversion is exact on the group's own channels (the overshoot
		// u·D_g vanishes mod q_i | D_g), so converting everywhere is safe.
		c.Dec.Groups[g].ToQ.ConvertN(hi-lo-1, digits, dQ.Coeffs, level+1)
		c.Dec.Groups[g].ToP.Convert(hi-lo-1, digits, dP.Coeffs)
		rq.NTT(level, dQ)
		rp.NTT(levelP, dP)
		// DecompPolyMult: accumulate digit ⊙ evk_g.
		rq.MulCoeffsAndAdd(level, dQ, swk.BQ[g], accBQ)
		rq.MulCoeffsAndAdd(level, dQ, swk.AQ[g], accAQ)
		rp.MulCoeffsAndAdd(levelP, dP, swk.BP[g], accBP)
		rp.MulCoeffsAndAdd(levelP, dP, swk.AP[g], accAP)
	}
	rq.INTT(level, accBQ)
	rq.INTT(level, accAQ)
	rp.INTT(levelP, accBP)
	rp.INTT(levelP, accAP)

	outB := rq.Borrow(level)
	outA := rq.Borrow(level)
	modDown := c.Ext.ModDownEager
	if c.params.T > 0 {
		modDown = c.modDownT
	}
	modDown(level, accBQ, accBP, outB)
	modDown(level, accAQ, accAP, outA)
	rq.Release(accBQ)
	rq.Release(accAQ)
	rp.Release(accBP)
	rp.Release(accAP)
	rq.Release(dQ)
	rp.Release(dP)
	return outB, outA
}

// The two ModDown steps the fused-vs-eager tests cover: the exact one
// (t = 0, CKKS) and the t-exact one (BGV/BFV).
var moddowns = []struct {
	name string
	t    uint64
}{{"exact", 0}, {"t-exact", 65537}}

// nttPrimes returns count distinct NTT-friendly primes of the given size
// for degree 2^logN, all ≡ 1 (mod 2N·t) when t > 0, in ascending order.
func nttPrimes(tb testing.TB, bits uint64, logN int, t uint64, count int) []uint64 {
	tb.Helper()
	m := uint64(2) << uint(logN)
	if t > 0 {
		m *= t
	}
	ps, err := modmath.GenerateNTTPrimes(bits, m, count)
	if err != nil {
		tb.Fatal(err)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return ps
}

// chainParams builds a parameter set with one qBits-bit q_0, levels more
// primes of scaleBits bits and k special primes of pBits bits.
func chainParams(tb testing.TB, logN, levels, dnum, k int, qBits, scaleBits, pBits, t uint64) Parameters {
	tb.Helper()
	need := map[uint64]int{qBits: 1}
	need[scaleBits] += levels
	need[pBits] += k
	pools := map[uint64][]uint64{}
	for bits, count := range need {
		pools[bits] = nttPrimes(tb, bits, logN, t, count)
	}
	take := func(bits uint64, count int) []uint64 {
		out := pools[bits][:count]
		pools[bits] = pools[bits][count:]
		return out
	}
	q := append(append([]uint64{}, take(qBits, 1)...), take(scaleBits, levels)...)
	return Parameters{LogN: logN, Q: q, P: take(pBits, k), Dnum: dnum, Sigma: 3.2, T: t}
}

// edgeParams builds a parameter set over near-2^61 primes: the lazy
// accumulators' capacity bound is 8 there, so the auto-flush paths run for
// real. P takes the two largest primes so P ≥ every digit-group product.
func edgeParams(tb testing.TB, dnum int, t uint64) Parameters {
	tb.Helper()
	const logN = 8
	ps := nttPrimes(tb, 61, logN, t, 6)
	return Parameters{LogN: logN, Q: ps[:4], P: ps[4:], Dnum: dnum, Sigma: 3.2, T: t}
}

func mustContext(tb testing.TB, p Parameters) *Context {
	tb.Helper()
	c, err := NewContext(p)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// checkFusedMatchesEager switches a uniform input at every level with a
// key between two fresh secrets and requires KeySwitch to equal the eager
// reference bit for bit.
func checkFusedMatchesEager(t *testing.T, c *Context, seed int64) {
	t.Helper()
	kg := NewKeyGenerator(c, seed)
	sk := kg.GenSecretKey()
	sk2 := NewKeyGenerator(c, seed+1).GenSecretKey()
	swk := kg.GenSwitchingKey(sk2.Q, sk)
	for level := 0; level <= c.RQ.MaxLevel(); level++ {
		x := c.RQ.NewPoly(level)
		ring.NewSampler(c.RQ, seed+2+int64(level)).Uniform(level, x)
		compareFusedEager(t, c, level, x, swk)
	}
}

func compareFusedEager(t *testing.T, c *Context, level int, x *ring.Poly, swk *SwitchingKey) {
	t.Helper()
	eagerB, eagerA := keySwitchEager(c, level, x, swk)
	fusedB, fusedA := c.KeySwitch(level, x, swk)
	if !c.RQ.Equal(level, eagerB, fusedB) || !c.RQ.Equal(level, eagerA, fusedA) {
		t.Fatalf("t=%d level %d: fused keyswitch differs from eager reference", c.params.T, level)
	}
	c.RQ.Release(eagerB)
	c.RQ.Release(eagerA)
	c.RQ.Release(fusedB)
	c.RQ.Release(fusedA)
}

// TestKeySwitchFusedMatchesEager: KeySwitch must be BIT-identical to the
// eager reference on every input and level, under both ModDown steps — the
// lazy accumulation, the dual digit-batched conversion and the
// identity-channel copies all compute the same fully reduced residues.
func TestKeySwitchFusedMatchesEager(t *testing.T) {
	for _, md := range moddowns {
		t.Run(md.name, func(t *testing.T) {
			c := mustContext(t, chainParams(t, 9, 5, 3, 2, 55, 40, 55, md.t))
			checkFusedMatchesEager(t, c, 101)
		})
	}
}

// TestKeySwitchFusedMatchesEagerEdgeModuli runs the comparison over
// near-2^61 moduli.
func TestKeySwitchFusedMatchesEagerEdgeModuli(t *testing.T) {
	for _, md := range moddowns {
		t.Run(md.name, func(t *testing.T) {
			checkFusedMatchesEager(t, mustContext(t, edgeParams(t, 2, md.t)), 202)
		})
	}
}

// TestKeySwitchFusedMatchesEagerAcrossDnum sweeps the digit count: every
// dnum changes the group structure, the identity-channel windows and the
// number of lazily accumulated terms.
func TestKeySwitchFusedMatchesEagerAcrossDnum(t *testing.T) {
	for _, md := range moddowns {
		t.Run(md.name, func(t *testing.T) {
			for _, dnum := range []int{1, 2, 3, 5} {
				// K=4 special primes so P covers even the dnum=1
				// single-group product (~215 bits).
				c := mustContext(t, chainParams(t, 8, 4, dnum, 4, 55, 40, 55, md.t))
				checkFusedMatchesEager(t, c, 300+int64(dnum))
			}
		})
	}
}

// fuzzCtxs caches one context per (dnum, edge, ModDown) configuration: fuzz
// workers run in parallel and context construction dominates otherwise.
var fuzzCtxs sync.Map

func fuzzContext(tb testing.TB, dnum int, edge bool, t uint64) *Context {
	type key struct {
		dnum int
		edge bool
		t    uint64
	}
	k := key{dnum, edge, t}
	if v, ok := fuzzCtxs.Load(k); ok {
		return v.(*Context)
	}
	p := edgeParams(tb, dnum, t)
	if !edge {
		p = chainParams(tb, 7, 3, dnum, 2, 45, 40, 45, t)
	}
	v, _ := fuzzCtxs.LoadOrStore(k, mustContext(tb, p))
	return v.(*Context)
}

// FuzzKeySwitchFusedVsEager drives KeySwitch against the eager reference
// over random inputs, levels and digit counts, on ordinary and near-2^61
// edge moduli, under both ModDown steps. Any single bit of divergence
// fails.
func FuzzKeySwitchFusedVsEager(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), false, false)
	f.Add(int64(7), uint8(2), uint8(3), false, false)
	f.Add(int64(9), uint8(3), uint8(2), true, false)
	f.Add(int64(42), uint8(1), uint8(2), true, false)
	f.Add(int64(5), uint8(3), uint8(0), false, true)
	f.Add(int64(11), uint8(1), uint8(2), false, true)
	f.Add(int64(13), uint8(2), uint8(1), true, true)
	f.Fuzz(func(t *testing.T, seed int64, levelSeed, dnumSeed uint8, edge, texact bool) {
		// Digit counts that keep P ≥ every digit group (Validate's noise
		// requirement): alpha ≤ 2 for these 4-prime chains.
		dnum := 2 + int(dnumSeed)%3
		if edge {
			dnum = 2 // 4 Q primes and 2 P primes of equal size: alpha must be 2
		}
		var tMod uint64
		if texact {
			tMod = moddowns[1].t
		}
		c := fuzzContext(t, dnum, edge, tMod)
		level := int(levelSeed) % (c.RQ.MaxLevel() + 1)
		kg := NewKeyGenerator(c, seed)
		sk := kg.GenSecretKey()
		sk2 := NewKeyGenerator(c, seed+1).GenSecretKey()
		swk := kg.GenSwitchingKey(sk2.Q, sk)
		x := c.RQ.NewPoly(level)
		ring.NewSampler(c.RQ, seed+2).Uniform(level, x)
		compareFusedEager(t, c, level, x, swk)
	})
}
