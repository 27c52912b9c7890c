package main

import (
	"alchemist/internal/ckks"
	"alchemist/internal/prng"
	"alchemist/internal/ring"
	"alchemist/internal/tfhe"
)

// The wrappers below put one span around each call the benchmark makes into
// a layer's public functions. Span names are "<layer>.<operation>", with the
// layer named after its module under internal/.

// ckksOps calls the CKKS evaluator, encoder, encryptor and decryptor.
type ckksOps struct {
	tr  *tracer
	ev  *ckks.Evaluator
	enc *ckks.Encoder
	dec *ckks.Decryptor
}

func (o ckksOps) mulRelin(a, b *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	defer o.tr.end(o.tr.begin("ckks.mulrelin"))
	return o.ev.MulRelin(a, b)
}

func (o ckksOps) rescale(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	defer o.tr.end(o.tr.begin("ckks.rescale"))
	return o.ev.Rescale(ct)
}

func (o ckksOps) rotate(ct *ckks.Ciphertext, k int) (*ckks.Ciphertext, error) {
	defer o.tr.end(o.tr.begin("ckks.rotate"))
	return o.ev.Rotate(ct, k)
}

func (o ckksOps) add(a, b *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	defer o.tr.end(o.tr.begin("ckks.add"))
	return o.ev.Add(a, b)
}

func (o ckksOps) mulConst(ct *ckks.Ciphertext, c float64) (*ckks.Ciphertext, error) {
	defer o.tr.end(o.tr.begin("ckks.mulconst"))
	return o.ev.MulConst(ct, complex(c, 0), o.enc)
}

func (o ckksOps) addPlain(ct *ckks.Ciphertext, pt *ring.Poly) *ckks.Ciphertext {
	defer o.tr.end(o.tr.begin("ckks.addplain"))
	return o.ev.AddPlain(ct, pt)
}

func (o ckksOps) linearTransform(ct *ckks.Ciphertext, lt *ckks.LinearTransform) (*ckks.Ciphertext, error) {
	defer o.tr.end(o.tr.begin("ckks.linear_transform"))
	return o.ev.EvalLinearTransform(ct, lt, o.enc)
}

// encode encodes real values at the given level and scale.
func (o ckksOps) encode(values []float64, level int, scale float64) (*ring.Poly, error) {
	defer o.tr.end(o.tr.begin("ckks.encode"))
	z := make([]complex128, len(values))
	for i, v := range values {
		z[i] = complex(v, 0)
	}
	return o.enc.Encode(z, level, scale)
}

func (o ckksOps) encrypt(et *ckks.Encryptor, pt *ring.Poly, level int, scale float64) *ckks.Ciphertext {
	defer o.tr.end(o.tr.begin("ckks.encrypt"))
	return et.Encrypt(pt, level, scale)
}

func (o ckksOps) decrypt(ct *ckks.Ciphertext) *ring.Poly {
	defer o.tr.end(o.tr.begin("ckks.decrypt"))
	return o.dec.DecryptPoly(ct)
}

// decode returns the real parts of the first n slots.
func (o ckksOps) decode(pt *ring.Poly, ct *ckks.Ciphertext, n int) []float64 {
	defer o.tr.end(o.tr.begin("ckks.decode"))
	z := o.enc.Decode(pt, ct.Level, ct.Scale)
	out := make([]float64, n)
	for i := range out {
		out[i] = real(z[i])
	}
	return out
}

// tfheOps calls the TFHE scheme and its circuits.
type tfheOps struct {
	tr *tracer
	s  *tfhe.Scheme
}

// encrypt encrypts a gate-encoded boolean (μ = ±1/8) with the request's own
// randomness, so a request's ciphertexts depend on its seed alone.
func (o tfheOps) encrypt(b bool, rng prng.Source) *tfhe.LweSample {
	defer o.tr.end(o.tr.begin("tfhe.encrypt"))
	return o.s.LweKey.Encrypt(gateMu(b), o.s.Params.LweSigma, rng)
}

func (o tfheOps) decrypt(c *tfhe.LweSample) bool {
	defer o.tr.end(o.tr.begin("tfhe.decrypt"))
	return o.s.DecryptBool(c)
}

func (o tfheOps) circuit(c *tfhe.Circuit, in []*tfhe.LweSample, workers int) ([]*tfhe.LweSample, error) {
	defer o.tr.end(o.tr.begin("tfhe.circuit"))
	return c.Evaluate(o.s, in, workers)
}

// gateMu is the gate encoding of a boolean on the torus.
func gateMu(b bool) tfhe.Torus {
	if b {
		return tfhe.TorusFromDouble(0.125)
	}
	return tfhe.TorusFromDouble(-0.125)
}

// phaseError is the distance of c's decrypted phase from the exact gate
// encoding of want: the output's noise, as a share of the torus.
func phaseError(s *tfhe.Scheme, c *tfhe.LweSample, want bool) float64 {
	got := tfhe.DoubleFromTorus(s.LweKey.Phase(c))
	exact := tfhe.DoubleFromTorus(gateMu(want))
	d := got - exact
	if d < 0 {
		d = -d
	}
	return d
}
