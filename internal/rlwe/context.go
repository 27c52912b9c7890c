package rlwe

import (
	"math/big"
	"sync"

	"alchemist/internal/modmath"
	"alchemist/internal/ring"
)

// Context carries the instantiated rings and hybrid-keyswitch
// precomputations for a parameter set. The scheme contexts embed it, so its
// fields and methods are theirs.
type Context struct {
	RQ  *ring.Ring // ring over Q
	RP  *ring.Ring // ring over P
	Ext *ring.Extender

	// Dec is the digit-batched dual-target decomposer the keyswitch runs on:
	// one pass converts every digit group to Q and to P, sharing the step-1
	// scaling (ring/decompose.go).
	Dec *ring.Decomposer

	params Parameters

	// pModQ[i] = P mod q_i: lifts a Q-only term into a Q ∪ P keyswitch
	// accumulator as P·x, which the closing ModDown returns exactly.
	pModQ []uint64

	// decPool recycles Decomposition shells (keyswitch.go).
	decPool sync.Pool

	// The t-exact ModDown (T > 0 only): pToQT converts P into
	// [t, q_0, q_1, …] so the correction can read the centered value modulo
	// t, pInvQ[i] = P^{-1} mod q_i, scratch recycles the [t|Q]-shaped
	// conversion buffers (they fit neither ring's arena) and convHdrs the
	// channel headers over them.
	pToQT    *ring.BasisConverter
	pInvQ    []uint64
	scratch  ring.BufPool
	convHdrs sync.Pool
}

// NewContext validates params and instantiates the rings, the digit
// converters and the ModDown tables.
func NewContext(params Parameters) (*Context, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	rq, err := ring.NewRing(params.N(), params.Q)
	if err != nil {
		return nil, err
	}
	rp, err := ring.NewRing(params.N(), params.P)
	if err != nil {
		return nil, err
	}
	c := &Context{RQ: rq, RP: rp, Ext: ring.NewExtender(rq, rp), params: params}
	alpha := params.Alpha()
	var duals []*ring.DualConverter
	for lo := 0; lo < len(params.Q); lo += alpha {
		src := params.Q[lo:min(lo+alpha, len(params.Q))]
		toQ := ring.NewBasisConverter(src, params.Q)
		toP := ring.NewBasisConverter(src, params.P)
		// Digit conversions ride the main ring's scheduler so SetWorkers
		// reaches the keyswitch's Bconv tiles too.
		toQ.BindScheduler(rq)
		toP.BindScheduler(rq)
		dc, err := ring.NewDualConverter(toQ, toP, lo)
		if err != nil {
			return nil, err
		}
		duals = append(duals, dc)
	}
	c.Dec = ring.NewDecomposer(alpha, duals)
	c.pModQ = make([]uint64, len(params.Q))
	for i, qi := range params.Q {
		acc := uint64(1)
		for _, pj := range params.P {
			acc = modmath.MulMod(acc, rq.SubRings[i].ReduceWord(pj), qi)
		}
		c.pModQ[i] = acc
	}
	if params.T > 0 {
		c.pToQT = ring.NewBasisConverter(params.P, append([]uint64{params.T}, params.Q...))
		c.pInvQ = make([]uint64, len(params.Q))
		for i, qi := range params.Q {
			c.pInvQ[i] = modmath.InvMod(c.pModQ[i], qi)
		}
	}
	return c, nil
}

// SetWorkers fans the worker count out to every ring the context owns (RQ,
// RP) — and with them the bound converters — so one call configures the
// whole kernel suite an evaluation touches. 1 (the default) disables
// parallelism. Safe to call concurrently with running evaluations; the
// setting applies to subsequently submitted kernels.
func (c *Context) SetWorkers(n int) {
	c.RQ.SetWorkers(n)
	c.RP.SetWorkers(n)
}

// Workers reports the configured worker count (minimum 1).
func (c *Context) Workers() int { return c.RQ.Workers() }

// Close tears down the resident worker pools of the context's rings (see
// ring.Ring.Close); the context remains usable, falling back to serial
// kernels until another parallel call respawns workers.
func (c *Context) Close() {
	c.RQ.Close()
	c.RP.Close()
}

// GroupRange returns the modulus index range [lo, hi) of digit group g.
func (c *Context) GroupRange(g int) (lo, hi int) {
	return c.Dec.GroupRange(g, c.RQ.MaxLevel())
}

// GroupsAtLevel returns how many digit groups are active at the given level.
func (c *Context) GroupsAtLevel(level int) int { return c.Dec.GroupsAt(level) }

// NTTTimesP sets out = NTT(a)·P over Q at levels 0..level (a in the
// coefficient domain; out may alias a).
func (c *Context) NTTTimesP(level int, a, out *ring.Poly) {
	rq := c.RQ
	rq.CopyLevel(level, a, out)
	rq.NTT(level, out)
	for i := 0; i <= level; i++ {
		rq.SubRings[i].MulScalar(out.Coeffs[i], c.pModQ[i], out.Coeffs[i])
	}
}

// gadgetFactor returns W_g mod the full Q basis as per-channel constants:
// W_g = P · (Q/D_g) · [(Q/D_g)^{-1}]_{D_g}. (W_g ≡ 0 on every P channel.)
func (c *Context) gadgetFactor(g int) []uint64 {
	lo, hi := c.GroupRange(g)
	Q := product(c.params.Q)
	Dg := product(c.params.Q[lo:hi])
	Qhat := new(big.Int).Div(Q, Dg)
	W := new(big.Int).Mul(product(c.params.P), Qhat)
	W.Mul(W, new(big.Int).ModInverse(new(big.Int).Mod(Qhat, Dg), Dg))
	out := make([]uint64, len(c.params.Q))
	tmp := new(big.Int)
	for i, qi := range c.params.Q {
		out[i] = tmp.Mod(W, new(big.Int).SetUint64(qi)).Uint64()
	}
	return out
}

func product(moduli []uint64) *big.Int {
	out := big.NewInt(1)
	for _, m := range moduli {
		out.Mul(out, new(big.Int).SetUint64(m))
	}
	return out
}
