package rlwe

import (
	"alchemist/internal/modmath"
	"alchemist/internal/prng"
	"alchemist/internal/ring"
)

// SecretKey holds the ternary secret s over both the Q and P bases
// (coefficient domain).
type SecretKey struct {
	Q *ring.Poly
	P *ring.Poly
}

// PublicKey is an encryption of zero: B = -A·s + T·e over Q (coefficient
// domain; T·e is e when T = 0).
type PublicKey struct {
	B *ring.Poly
	A *ring.Poly
}

// SwitchingKey re-encrypts a polynomial from key s' to key s using the
// hybrid (dnum-group) gadget: for each digit group g,
//
//	B_g = -A_g·s + T·e_g + W_g·s'   over Q·P,   A_g uniform over Q·P,
//
// where W_g = P · (Q/D_g) · [(Q/D_g)^{-1}]_{D_g} vanishes on the P channels.
// All polynomials are stored in the NTT domain, split into their Q and P
// parts.
type SwitchingKey struct {
	BQ, AQ []*ring.Poly // per group, over Q (level L), NTT domain
	BP, AP []*ring.Poly // per group, over P, NTT domain
}

// KeyGenerator samples keys for a context. Every draw comes from one
// explicitly seeded prng.Source (test-grade randomness; see ring.Sampler).
type KeyGenerator struct {
	ctx    *Context
	src    prng.Source
	sq, sp *ring.Sampler // over RQ and RP, both drawing from src
}

// NewKeyGenerator returns a deterministic key generator.
func NewKeyGenerator(ctx *Context, seed int64) *KeyGenerator {
	src := prng.New(seed)
	return &KeyGenerator{ctx: ctx, src: src,
		sq: ring.NewSamplerFromSource(ctx.RQ, src),
		sp: ring.NewSamplerFromSource(ctx.RP, src)}
}

// GenSecretKey samples a ternary secret: each coefficient is 0 with
// probability 1/3 and ±1 with probability 1/3 each.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	rq := kg.ctx.RQ
	s := rq.NewPoly(rq.MaxLevel())
	kg.sq.Ternary(rq.MaxLevel(), 2.0/3.0, s)
	return &SecretKey{Q: s, P: kg.ctx.extendSmall(s)}
}

// GenSecretKeySparse samples a ternary secret with exactly h non-zero
// coefficients. Sparse secrets bound the ModRaise overflow count I(X) in
// CKKS bootstrapping (|I| ≤ h+2), shrinking the EvalMod approximation range
// — the standard HEAAN/BTS bootstrapping key choice.
func (kg *KeyGenerator) GenSecretKeySparse(h int) *SecretKey {
	rq := kg.ctx.RQ
	n := rq.N
	h = min(h, n)
	s := rq.NewPoly(rq.MaxLevel())
	for placed := 0; placed < h; {
		j := kg.src.Intn(n)
		if s.Coeffs[0][j] != 0 {
			continue
		}
		v := int64(1)
		if kg.src.Intn(2) != 0 {
			v = -1
		}
		for i, qi := range rq.Moduli {
			s.Coeffs[i][j] = modmath.ReduceSigned(v, qi)
		}
		placed++
	}
	return &SecretKey{Q: s, P: kg.ctx.extendSmall(s)}
}

// GenPublicKey samples pk = (-A·s + T·e, A) over Q.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	rq := kg.ctx.RQ
	level := rq.MaxLevel()
	a := rq.NewPoly(level)
	kg.sq.Uniform(level, a)
	e := kg.ctx.sampleError(kg.sq, rq, level)
	b := rq.NewPoly(level)
	rq.MulPoly(level, a, sk.Q, b) // a·s
	rq.Neg(level, b, b)
	rq.Add(level, b, e, b)
	return &PublicKey{B: b, A: a}
}

// GenSwitchingKey generates a key switching sPrime (over Q, coefficient
// domain, full level) to sk.
func (kg *KeyGenerator) GenSwitchingKey(sPrime *ring.Poly, sk *SecretKey) *SwitchingKey {
	ctx := kg.ctx
	rq, rp := ctx.RQ, ctx.RP
	levelQ, levelP := rq.MaxLevel(), rp.MaxLevel()
	swk := &SwitchingKey{}
	for g := range ctx.Dec.Groups {
		aQ := rq.NewPoly(levelQ)
		kg.sq.Uniform(levelQ, aQ)
		aP := rp.NewPoly(levelP)
		kg.sp.Uniform(levelP, aP)
		eQ := ctx.sampleError(kg.sq, rq, levelQ)
		eP := ctx.extendSmall(eQ)

		// bQ = -aQ·s + eQ + W_g·s' over Q.
		bQ := rq.NewPoly(levelQ)
		rq.MulPoly(levelQ, aQ, sk.Q, bQ)
		rq.Neg(levelQ, bQ, bQ)
		rq.Add(levelQ, bQ, eQ, bQ)
		w := ctx.gadgetFactor(g)
		ws := rq.NewPoly(levelQ)
		for i := 0; i <= levelQ; i++ {
			rq.SubRings[i].MulScalar(sPrime.Coeffs[i], w[i], ws.Coeffs[i])
		}
		rq.Add(levelQ, bQ, ws, bQ)

		// bP = -aP·s + eP over P (the gadget vanishes mod P).
		bP := rp.NewPoly(levelP)
		rp.MulPoly(levelP, aP, sk.P, bP)
		rp.Neg(levelP, bP, bP)
		rp.Add(levelP, bP, eP, bP)

		// Store in the NTT domain for direct use in DecompPolyMult.
		rq.NTT(levelQ, bQ)
		rq.NTT(levelQ, aQ)
		rp.NTT(levelP, bP)
		rp.NTT(levelP, aP)
		swk.BQ = append(swk.BQ, bQ)
		swk.AQ = append(swk.AQ, aQ)
		swk.BP = append(swk.BP, bP)
		swk.AP = append(swk.AP, aP)
	}
	return swk
}

// GenRelinKey generates the relinearization key (s² → s).
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey) *SwitchingKey {
	rq := kg.ctx.RQ
	level := rq.MaxLevel()
	s2 := rq.NewPoly(level)
	rq.MulPoly(level, sk.Q, sk.Q, s2)
	return kg.GenSwitchingKey(s2, sk)
}

// GenGaloisKey generates the key for the Galois element k (φ_k(s) → s; k
// odd, rotations use RQ.GaloisElementForRotation).
func (kg *KeyGenerator) GenGaloisKey(k uint64, sk *SecretKey) *SwitchingKey {
	rq := kg.ctx.RQ
	level := rq.MaxLevel()
	sk2 := rq.NewPoly(level)
	rq.Automorphism(level, sk.Q, k, sk2)
	return kg.GenSwitchingKey(sk2, sk)
}

// sampleError draws a rounded Gaussian error over r at the given level,
// scaled by T when the scheme has a plaintext modulus.
func (c *Context) sampleError(s *ring.Sampler, r *ring.Ring, level int) *ring.Poly {
	e := r.NewPoly(level)
	s.Gaussian(level, c.params.Sigma, e)
	if c.params.T > 0 {
		r.MulScalar(level, e, c.params.T, e)
	}
	return e
}

// extendSmall copies a polynomial over Q whose coefficients are small
// (|x| < q_0/2: secrets and errors) onto the P basis.
func (c *Context) extendSmall(x *ring.Poly) *ring.Poly {
	rp := c.RP
	out := rp.NewPoly(rp.MaxLevel())
	q0 := c.RQ.Moduli[0]
	for j, r := range x.Coeffs[0] {
		v := ring.SignedCoeff(r, q0)
		for i, pi := range rp.Moduli {
			out.Coeffs[i][j] = modmath.ReduceSigned(v, pi)
		}
	}
	return out
}

// Encryptor encrypts plaintext polynomials under a public key.
type Encryptor struct {
	ctx *Context
	pk  *PublicKey
	s   *ring.Sampler
}

// NewEncryptor returns an encryptor with deterministic randomness.
func NewEncryptor(ctx *Context, pk *PublicKey, seed int64) *Encryptor {
	return &Encryptor{ctx: ctx, pk: pk, s: ring.NewSampler(ctx.RQ, seed)}
}

// Encrypt encrypts the coefficient-domain plaintext pt at the given level:
// (B, A) = (u·pk.B + T·e0 + pt, u·pk.A + T·e1) with a ternary u.
func (e *Encryptor) Encrypt(pt *ring.Poly, level int) (b, a *ring.Poly) {
	ctx := e.ctx
	rq := ctx.RQ
	u := rq.NewPoly(level)
	e.s.Ternary(level, 2.0/3.0, u)
	e0 := ctx.sampleError(e.s, rq, level)
	e1 := ctx.sampleError(e.s, rq, level)
	b = rq.NewPoly(level)
	a = rq.NewPoly(level)
	rq.MulPoly(level, e.pk.B, u, b)
	rq.MulPoly(level, e.pk.A, u, a)
	rq.Add(level, b, e0, b)
	rq.Add(level, b, pt, b)
	rq.Add(level, a, e1, a)
	return b, a
}

// Decrypt returns the phase B + A·s at the given level.
func (c *Context) Decrypt(sk *SecretKey, level int, b, a *ring.Poly) *ring.Poly {
	out := c.RQ.NewPoly(level)
	c.RQ.MulPoly(level, a, sk.Q, out)
	c.RQ.Add(level, out, b, out)
	return out
}
