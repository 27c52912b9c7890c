package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"

	"alchemist/internal/errs"
	"alchemist/internal/modmath"
	"alchemist/internal/ring"
)

// Encoder maps vectors of N/2 complex slots to ring elements through the
// canonical embedding: slot k corresponds to evaluation of the message
// polynomial at ζ^(5^k mod 2N), ζ = exp(iπ/N).
type Encoder struct {
	ctx      *Context
	n        int          // slots = N/2
	m        int          // 2N
	roots    []complex128 // roots[k] = exp(2πi k / 2N), k ∈ [0, 2N)
	rotGroup []int        // 5^j mod 2N
	crt      []crtLevel   // crt[l]: reconstruction constants of level l ≥ 1
}

// crtLevel holds the CRT reconstruction constants of one level l, built once
// per encoder so Decode does no per-coefficient big.Int setup:
//
//	x = Σ_i [r_i · qHatInv_i]_{q_i} · qHat_i  mod Q_l
//
// with qHat_i = Q_l/q_i and qHatInv_i = qHat_i^{-1} mod q_i.
type crtLevel struct {
	q, half      *big.Int // Q_l and ⌊Q_l/2⌋
	qHat         []*big.Int
	qHatInv      []uint64
	qHatInvShoup []uint64
}

// crtScratch is the per-Decode working storage of centeredCoeff.
type crtScratch struct {
	x, t big.Int
	f    big.Float
}

// NewEncoder builds an encoder for the context.
func NewEncoder(ctx *Context) *Encoder {
	n := ctx.Params.Slots()
	m := 4 * n // 2N
	e := &Encoder{ctx: ctx, n: n, m: m}
	e.roots = make([]complex128, m+1)
	for k := 0; k <= m; k++ {
		angle := 2 * math.Pi * float64(k) / float64(m)
		e.roots[k] = cmplx.Rect(1, angle)
	}
	e.rotGroup = make([]int, n)
	fivePow := 1
	for j := 0; j < n; j++ {
		e.rotGroup[j] = fivePow
		fivePow = fivePow * 5 % m
	}
	moduli := ctx.RQ.Moduli
	e.crt = make([]crtLevel, len(moduli))
	for l := 1; l < len(moduli); l++ {
		c := &e.crt[l]
		c.q = ctx.RQ.Modulus(l)
		c.half = new(big.Int).Rsh(c.q, 1)
		c.qHat = make([]*big.Int, l+1)
		c.qHatInv = make([]uint64, l+1)
		c.qHatInvShoup = make([]uint64, l+1)
		for i := 0; i <= l; i++ {
			qi := new(big.Int).SetUint64(moduli[i])
			c.qHat[i] = new(big.Int).Div(c.q, qi)
			c.qHatInv[i] = new(big.Int).ModInverse(c.qHat[i], qi).Uint64()
			c.qHatInvShoup[i] = modmath.ShoupPrecomp(c.qHatInv[i], moduli[i])
		}
	}
	return e
}

// Encode packs values (≤ N/2 complex slots, zero-padded) into a fresh
// coefficient-domain polynomial at the given level and scale.
func (e *Encoder) Encode(values []complex128, level int, scale float64) (*ring.Poly, error) {
	w, err := e.embed(values)
	if err != nil {
		return nil, err
	}
	p := e.ctx.RQ.NewPoly(level)
	e.writeCoeffs(e.ctx.RQ, p, w, level, scale)
	return p, nil
}

// encodeQP encodes values like Encode, but into the NTT domain over Q at the
// given level and over the whole special basis P: the same integer
// polynomial in both bases, ready to multiply a Q ∪ P keyswitch accumulator.
func (e *Encoder) encodeQP(values []complex128, level int, scale float64) (pq, pp *ring.Poly, err error) {
	w, err := e.embed(values)
	if err != nil {
		return nil, nil, err
	}
	rq, rp := e.ctx.RQ, e.ctx.RP
	levelP := rp.MaxLevel()
	pq, pp = rq.NewPoly(level), rp.NewPoly(levelP)
	e.writeCoeffs(rq, pq, w, level, scale)
	e.writeCoeffs(rp, pp, w, levelP, scale)
	rq.NTT(level, pq)
	rp.NTT(levelP, pp)
	return pq, pp, nil
}

// embed maps up to N/2 slot values (zero-padded) to the complex form of
// the message coefficients: coefficient j is real(w[j]), coefficient j+N/2
// is imag(w[j]), before scaling.
func (e *Encoder) embed(values []complex128) ([]complex128, error) {
	if len(values) > e.n {
		return nil, fmt.Errorf("ckks: %d values exceed %d slots: %w", len(values), e.n, errs.ErrBadConfig)
	}
	w := make([]complex128, e.n)
	copy(w, values)
	e.specialIFFT(w)
	return w, nil
}

// writeCoeffs scales and rounds the embedded coefficients w into p over r's
// levels 0..level.
func (e *Encoder) writeCoeffs(r *ring.Ring, p *ring.Poly, w []complex128, level int, scale float64) {
	for j := 0; j < e.n; j++ {
		setCoeff(r, p, j, math.Round(real(w[j])*scale), level)
		setCoeff(r, p, j+e.n, math.Round(imag(w[j])*scale), level)
	}
}

// Decode reads slots back from a coefficient-domain polynomial.
func (e *Encoder) Decode(p *ring.Poly, level int, scale float64) []complex128 {
	w := make([]complex128, e.n)
	var s crtScratch
	for j := 0; j < e.n; j++ {
		re := e.centeredCoeff(p, j, level, &s)
		im := e.centeredCoeff(p, j+e.n, level, &s)
		w[j] = complex(re/scale, im/scale)
	}
	e.specialFFT(w)
	return w
}

// setCoeff writes the signed value v into coefficient j of p across r's
// levels 0..level.
func setCoeff(r *ring.Ring, p *ring.Poly, j int, v float64, level int) {
	neg := v < 0
	abs := uint64(math.Abs(v))
	for i := 0; i <= level; i++ {
		q := r.Moduli[i]
		res := r.SubRings[i].ReduceWord(abs)
		if neg && res != 0 {
			res = q - res
		}
		p.Coeffs[i][j] = res
	}
}

// centeredCoeff reads coefficient j as a centered float, CRT-reconstructing
// across levels 0..level so that coefficients larger than q_0 (e.g. after a
// multiplication, before rescaling) decode correctly. The integer is exact
// and its conversion is the one correctly rounded float64, so the result
// matches a modmath.CRTReconstruct-based decode bit for bit.
func (e *Encoder) centeredCoeff(p *ring.Poly, j, level int, s *crtScratch) float64 {
	moduli := e.ctx.RQ.Moduli
	if level == 0 {
		return float64(ring.SignedCoeff(p.Coeffs[0][j], moduli[0]))
	}
	c := &e.crt[level]
	x, t := &s.x, &s.t
	x.SetUint64(0)
	for i := 0; i <= level; i++ {
		v := modmath.MulModShoup(p.Coeffs[i][j], c.qHatInv[i], c.qHatInvShoup[i], moduli[i])
		t.SetUint64(v)
		x.Add(x, t.Mul(t, c.qHat[i]))
	}
	// Each term is below Q_l, so at most `level` subtractions finish the
	// reduction.
	for x.Cmp(c.q) >= 0 {
		x.Sub(x, c.q)
	}
	if x.Cmp(c.half) > 0 {
		x.Sub(x, c.q)
	}
	if x.IsInt64() {
		return float64(x.Int64())
	}
	// Precision 0 makes SetInt take the integer's full width: exact, so
	// Float64 rounds once.
	f, _ := s.f.SetPrec(0).SetInt(x).Float64()
	return f
}

// specialFFT evaluates the half-DFT used for decoding:
// out[k] = Σ_j w[j] · ζ^(j · 5^k mod 2N). In-place, O(n log n).
func (e *Encoder) specialFFT(vals []complex128) {
	n := len(vals)
	bitReverseComplex(vals)
	for length := 2; length <= n; length <<= 1 {
		lenh := length >> 1
		lenq := length << 2
		gap := e.m / lenq
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] % lenq) * gap
				u := vals[i+j]
				v := vals[i+j+lenh] * e.roots[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

// specialIFFT inverts specialFFT (encoding direction).
func (e *Encoder) specialIFFT(vals []complex128) {
	n := len(vals)
	for length := n; length >= 2; length >>= 1 {
		lenh := length >> 1
		lenq := length << 2
		gap := e.m / lenq
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (lenq - (e.rotGroup[j] % lenq)) * gap
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * e.roots[idx]
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	bitReverseComplex(vals)
	inv := complex(1/float64(n), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

func bitReverseComplex(v []complex128) {
	n := len(v)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := 0; i < n; i++ {
		j := 0
		x := i
		for b := 0; b < bits; b++ {
			j = j<<1 | (x & 1)
			x >>= 1
		}
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
	}
}

// decodeDirect is the O(n·N) reference decode used to validate the FFT
// network: z_k = (1/scale) · m(ζ^(5^k)) with centered coefficients.
func (e *Encoder) decodeDirect(p *ring.Poly, level int, scale float64) []complex128 {
	nCoeffs := 2 * e.n
	coeffs := make([]float64, nCoeffs)
	var s crtScratch
	for j := 0; j < nCoeffs; j++ {
		coeffs[j] = e.centeredCoeff(p, j, level, &s)
	}
	out := make([]complex128, e.n)
	for k := 0; k < e.n; k++ {
		pk := e.rotGroup[k]
		var acc complex128
		for j := 0; j < nCoeffs; j++ {
			acc += complex(coeffs[j], 0) * e.roots[(j*pk)%e.m]
		}
		out[k] = acc / complex(scale, 0)
	}
	return out
}

// encodeDirect is the O(n·N) reference encode:
// m_j = round((2·scale/N) · Re( Σ_k z_k · ζ^(-j·5^k) )).
func (e *Encoder) encodeDirect(values []complex128, level int, scale float64) *ring.Poly {
	nCoeffs := 2 * e.n
	p := e.ctx.RQ.NewPoly(level)
	for j := 0; j < nCoeffs; j++ {
		var acc complex128
		for k := 0; k < e.n && k < len(values); k++ {
			pk := e.rotGroup[k]
			acc += values[k] * e.roots[(e.m-(j*pk)%e.m)%e.m]
		}
		v := math.Round(real(acc) * scale / float64(e.n))
		setCoeff(e.ctx.RQ, p, j, v, level)
	}
	return p
}
