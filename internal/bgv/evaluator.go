package bgv

import (
	"fmt"

	"alchemist/internal/errs"
	"alchemist/internal/modmath"
	"alchemist/internal/ring"
	"alchemist/internal/rlwe"
)

// Ciphertext is a BGV ciphertext (B, A) with decryption (B + A·s) mod t.
type Ciphertext struct {
	B, A  *ring.Poly
	Level int
}

// Encryptor encrypts under a public key.
type Encryptor struct{ enc *rlwe.Encryptor }

// NewEncryptor returns an encryptor.
func NewEncryptor(ctx *Context, pk *PublicKey, seed int64) *Encryptor {
	return &Encryptor{rlwe.NewEncryptor(ctx.Context, pk, seed)}
}

// Encrypt encrypts a plaintext polynomial at the given level:
// (u·pk.B + t·e0 + m, u·pk.A + t·e1).
func (e *Encryptor) Encrypt(pt *ring.Poly, level int) *Ciphertext {
	b, a := e.enc.Encrypt(pt, level)
	return &Ciphertext{B: b, A: a, Level: level}
}

// Decryptor decrypts with the secret key.
type Decryptor struct {
	ctx *Context
	sk  *SecretKey
}

// NewDecryptor returns a decryptor.
func NewDecryptor(ctx *Context, sk *SecretKey) *Decryptor {
	return &Decryptor{ctx: ctx, sk: sk}
}

// DecryptPoly returns B + A·s at ct's level (reduce mod t to read the
// message; Encoder.Decode does both).
func (d *Decryptor) DecryptPoly(ct *Ciphertext) *ring.Poly {
	return d.ctx.Decrypt(d.sk, ct.Level, ct.B, ct.A)
}

// Evaluator performs homomorphic operations.
type Evaluator struct {
	ctx *Context
	rlk *SwitchingKey
}

// NewEvaluator returns an evaluator (rlk may be nil for additions).
func NewEvaluator(ctx *Context, rlk *SwitchingKey) *Evaluator {
	return &Evaluator{ctx: ctx, rlk: rlk}
}

func minLevel(a, b *Ciphertext) int {
	if a.Level < b.Level {
		return a.Level
	}
	return b.Level
}

// Add returns a + b.
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	level := minLevel(a, b)
	out := &Ciphertext{B: ev.ctx.RQ.NewPoly(level), A: ev.ctx.RQ.NewPoly(level), Level: level}
	ev.ctx.RQ.Add(level, a.B, b.B, out.B)
	ev.ctx.RQ.Add(level, a.A, b.A, out.A)
	return out
}

// Sub returns a - b.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	level := minLevel(a, b)
	out := &Ciphertext{B: ev.ctx.RQ.NewPoly(level), A: ev.ctx.RQ.NewPoly(level), Level: level}
	ev.ctx.RQ.Sub(level, a.B, b.B, out.B)
	ev.ctx.RQ.Sub(level, a.A, b.A, out.A)
	return out
}

// MulPlain returns ct ⊙ pt for a plaintext polynomial.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *ring.Poly) *Ciphertext {
	level := ct.Level
	out := &Ciphertext{B: ev.ctx.RQ.NewPoly(level), A: ev.ctx.RQ.NewPoly(level), Level: level}
	ev.ctx.RQ.MulPoly(level, ct.B, pt, out.B)
	ev.ctx.RQ.MulPoly(level, ct.A, pt, out.A)
	return out
}

// MulRelin returns a·b with relinearization. The product plaintext is
// m_a·m_b mod t, exactly.
func (ev *Evaluator) MulRelin(a, b *Ciphertext) (*Ciphertext, error) {
	if ev.rlk == nil {
		return nil, fmt.Errorf("bgv: relinearization key missing: %w", errs.ErrBadConfig)
	}
	rq := ev.ctx.RQ
	level := minLevel(a, b)
	out := &Ciphertext{B: rq.Borrow(level), A: rq.Borrow(level), Level: level} //alchemist:owns the product ciphertext wraps the pooled limbs; the GC or a later Release by the caller takes them
	ev.ctx.MulRelin(level, a.B, a.A, b.B, b.A, ev.rlk, out.B, out.A)
	return out, nil
}

// ApplyGalois applies the automorphism φ_k homomorphically: the result
// decrypts to φ_k(m) mod t, exactly. gk must be the GenGaloisKey(k, ·) key.
// The hoisted order (decompose ct.A, then permute inside the accumulation)
// never materializes φ_k(A)'s digits.
func (ev *Evaluator) ApplyGalois(ct *Ciphertext, k uint64, gk *SwitchingKey) (*Ciphertext, error) {
	if gk == nil {
		return nil, fmt.Errorf("bgv: galois key missing: %w", errs.ErrBadConfig)
	}
	b, a := ev.ctx.ApplyGalois(ct.Level, ct.B, ct.A, k, gk)
	return &Ciphertext{B: b, A: a, Level: ct.Level}, nil
}

// RotateRows applies the row rotation by r steps (Galois element 5^r), the
// packed-slot permutation BGV inherits from the power-of-two cyclotomic.
func (ev *Evaluator) RotateRows(ct *Ciphertext, r int, gk *SwitchingKey) (*Ciphertext, error) {
	return ev.ApplyGalois(ct, ev.ctx.RQ.GaloisElementForRotation(r), gk)
}

// Rescale performs the BGV modulus switch: divides the ciphertext by its
// last modulus q_l (≡ 1 mod t) with a correction δ' ≡ [x]_{q_l} (mod q_l)
// and ≡ 0 (mod t), shrinking noise by ≈ q_l without touching the plaintext.
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Level == 0 {
		return nil, fmt.Errorf("bgv: no level left to rescale: %w", errs.ErrBadConfig)
	}
	ctx := ev.ctx
	level := ct.Level
	out := &Ciphertext{
		B:     ctx.RQ.NewPoly(level - 1),
		A:     ctx.RQ.NewPoly(level - 1),
		Level: level - 1,
	}
	ev.modSwitchPoly(level, ct.B, out.B)
	ev.modSwitchPoly(level, ct.A, out.A)
	return out, nil
}

func (ev *Evaluator) modSwitchPoly(level int, in, out *ring.Poly) {
	ctx := ev.ctx
	t := int64(ctx.Params.T)
	ql := ctx.RQ.Moduli[level]
	n := ctx.Params.N()
	// Per-channel inverse of q_l.
	for i := 0; i < level; i++ {
		qi := ctx.RQ.Moduli[i]
		inv := modmath.InvMod(ctx.RQ.SubRings[i].ReduceWord(ql), qi)
		invS := modmath.ShoupPrecomp(inv, qi)
		for k := 0; k < n; k++ {
			// δ' = centered([x]_{q_l}) + q_l·w with w ≡ -δ (mod t); since
			// q_l ≡ 1 (mod t), δ' ≡ 0 (mod t) and ≡ [x]_{q_l} (mod q_l).
			dc := ring.SignedCoeff(in.Coeffs[level][k], ql)
			w := (-dc) % t
			if w < 0 {
				w += t
			}
			delta := dc + int64(ql)*w // |δ'| < q_l·(t+1): fits int64 for 45-bit q_l, 17-bit t
			dmod := modmath.ReduceSigned(delta, qi)
			d := modmath.SubMod(in.Coeffs[i][k], dmod, qi)
			out.Coeffs[i][k] = modmath.MulModShoup(d, inv, invS, qi)
		}
	}
}
