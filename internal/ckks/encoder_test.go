package ckks

import (
	"math"
	"math/big"
	"math/cmplx"
	"math/rand"
	"testing"

	"alchemist/internal/modmath"
	"alchemist/internal/ring"
)

func smallContext(t testing.TB, logN int) *Context {
	t.Helper()
	p, err := GenParams(logN, 3, 2, 2, 55, 40, 55)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func randomSlots(n int, seed int64, amp float64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	z := make([]complex128, n)
	for i := range z {
		z[i] = complex((rng.Float64()*2-1)*amp, (rng.Float64()*2-1)*amp)
	}
	return z
}

func maxSlotError(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, logN := range []int{6, 8, 10} {
		ctx := smallContext(t, logN)
		enc := NewEncoder(ctx)
		z := randomSlots(ctx.Params.Slots(), 5, 1.0)
		level := ctx.Params.MaxLevel()
		p, err := enc.Encode(z, level, ctx.Params.Scale)
		if err != nil {
			t.Fatal(err)
		}
		back := enc.Decode(p, level, ctx.Params.Scale)
		if e := maxSlotError(z, back); e > 1e-7 {
			t.Fatalf("logN=%d: round-trip error %v", logN, e)
		}
	}
}

func TestFFTMatchesDirectDecode(t *testing.T) {
	ctx := smallContext(t, 7)
	enc := NewEncoder(ctx)
	z := randomSlots(ctx.Params.Slots(), 6, 1.0)
	level := ctx.Params.MaxLevel()
	p, err := enc.Encode(z, level, ctx.Params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	fast := enc.Decode(p, level, ctx.Params.Scale)
	direct := enc.decodeDirect(p, level, ctx.Params.Scale)
	if e := maxSlotError(fast, direct); e > 1e-6 {
		t.Fatalf("FFT decode != direct decode: %v", e)
	}
}

func TestFFTMatchesDirectEncode(t *testing.T) {
	ctx := smallContext(t, 7)
	enc := NewEncoder(ctx)
	z := randomSlots(ctx.Params.Slots(), 7, 1.0)
	level := ctx.Params.MaxLevel()
	fast, err := enc.Encode(z, level, ctx.Params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	direct := enc.encodeDirect(z, level, ctx.Params.Scale)
	n := ctx.Params.N()
	q0 := ctx.RQ.Moduli[0]
	for j := 0; j < n; j++ {
		a, b := fast.Coeffs[0][j], direct.Coeffs[0][j]
		d := int64(a) - int64(b)
		if d < 0 {
			d = -d
		}
		if d > 1 && uint64(d) != q0-1 { // allow ±1 rounding disagreement
			t.Fatalf("coeff %d: fast=%d direct=%d", j, a, b)
		}
	}
}

func TestEncodingIsMultiplicative(t *testing.T) {
	// decode(encode(z1) * encode(z2)) == z1 ⊙ z2 (scale²): the canonical
	// embedding is a ring homomorphism.
	ctx := smallContext(t, 8)
	enc := NewEncoder(ctx)
	level := ctx.Params.MaxLevel()
	z1 := randomSlots(ctx.Params.Slots(), 8, 1.0)
	z2 := randomSlots(ctx.Params.Slots(), 9, 1.0)
	p1, _ := enc.Encode(z1, level, ctx.Params.Scale)
	p2, _ := enc.Encode(z2, level, ctx.Params.Scale)
	prod := ctx.RQ.NewPoly(level)
	ctx.RQ.MulPoly(level, p1, p2, prod)
	got := enc.Decode(prod, level, ctx.Params.Scale*ctx.Params.Scale)
	want := make([]complex128, len(z1))
	for i := range want {
		want[i] = z1[i] * z2[i]
	}
	if e := maxSlotError(got, want); e > 1e-4 {
		t.Fatalf("embedding not multiplicative: error %v", e)
	}
}

func TestEncodingIsAdditive(t *testing.T) {
	ctx := smallContext(t, 8)
	enc := NewEncoder(ctx)
	level := ctx.Params.MaxLevel()
	z1 := randomSlots(ctx.Params.Slots(), 10, 1.0)
	z2 := randomSlots(ctx.Params.Slots(), 11, 1.0)
	p1, _ := enc.Encode(z1, level, ctx.Params.Scale)
	p2, _ := enc.Encode(z2, level, ctx.Params.Scale)
	sum := ctx.RQ.NewPoly(level)
	ctx.RQ.Add(level, p1, p2, sum)
	got := enc.Decode(sum, level, ctx.Params.Scale)
	want := make([]complex128, len(z1))
	for i := range want {
		want[i] = z1[i] + z2[i]
	}
	if e := maxSlotError(got, want); e > 1e-7 {
		t.Fatalf("embedding not additive: error %v", e)
	}
}

func TestEncodeRejectsTooManyValues(t *testing.T) {
	ctx := smallContext(t, 6)
	enc := NewEncoder(ctx)
	_, err := enc.Encode(make([]complex128, ctx.Params.Slots()+1), 0, ctx.Params.Scale)
	if err == nil {
		t.Fatal("expected error for too many slots")
	}
}

func TestRotationOfSlotsViaAutomorphism(t *testing.T) {
	// Applying φ_{5^r} to the plaintext rotates the slot vector by r.
	ctx := smallContext(t, 8)
	enc := NewEncoder(ctx)
	level := ctx.Params.MaxLevel()
	n := ctx.Params.Slots()
	z := randomSlots(n, 12, 1.0)
	p, _ := enc.Encode(z, level, ctx.Params.Scale)
	for _, r := range []int{1, 3, n / 2, n - 1} {
		k := ctx.RQ.GaloisElementForRotation(r)
		rot := ctx.RQ.NewPoly(level)
		ctx.RQ.Automorphism(level, p, k, rot)
		got := enc.Decode(rot, level, ctx.Params.Scale)
		want := make([]complex128, n)
		for i := range want {
			want[i] = z[(i+r)%n]
		}
		if e := maxSlotError(got, want); e > 1e-6 {
			t.Fatalf("rotation by %d failed: error %v", r, e)
		}
	}
}

func TestConjugationViaAutomorphism(t *testing.T) {
	ctx := smallContext(t, 8)
	enc := NewEncoder(ctx)
	level := ctx.Params.MaxLevel()
	z := randomSlots(ctx.Params.Slots(), 13, 1.0)
	p, _ := enc.Encode(z, level, ctx.Params.Scale)
	conj := ctx.RQ.NewPoly(level)
	ctx.RQ.Automorphism(level, p, ctx.RQ.GaloisElementConjugate(), conj)
	got := enc.Decode(conj, level, ctx.Params.Scale)
	for i := range z {
		if cmplx.Abs(got[i]-cmplx.Conj(z[i])) > 1e-6 {
			t.Fatalf("conjugation failed at slot %d", i)
		}
	}
}

func TestEncodeLargeAmplitudePrecision(t *testing.T) {
	ctx := smallContext(t, 8)
	enc := NewEncoder(ctx)
	level := ctx.Params.MaxLevel()
	z := randomSlots(ctx.Params.Slots(), 14, 100.0)
	p, _ := enc.Encode(z, level, ctx.Params.Scale)
	back := enc.Decode(p, level, ctx.Params.Scale)
	if e := maxSlotError(z, back); e > 1e-5 {
		t.Fatalf("large-amplitude round trip error %v", e)
	}
	_ = math.Pi
}

// centeredCoeffOracle is the per-coefficient reference decode: a fresh
// modmath.CRTReconstruct per coefficient, centered, converted through
// big.Float.
func centeredCoeffOracle(ctx *Context, p *ring.Poly, j, level int) float64 {
	if level == 0 {
		return float64(ring.SignedCoeff(p.Coeffs[0][j], ctx.RQ.Moduli[0]))
	}
	res := make([]uint64, level+1)
	for i := range res {
		res[i] = p.Coeffs[i][j]
	}
	x := modmath.CRTReconstruct(res, ctx.RQ.Moduli[:level+1])
	q := ctx.RQ.Modulus(level)
	if x.Cmp(new(big.Int).Rsh(q, 1)) > 0 {
		x.Sub(x, q)
	}
	f, _ := new(big.Float).SetInt(x).Float64()
	return f
}

// TestCenteredCoeffMatchesCRTOracle pins the precomputed-constant decode bit
// for bit against the reference CRT path at every level: on encoded
// plaintexts (the int64 fast path), on uniform residues (wide integers, the
// big.Float path) and on the centering boundaries 0, ⌊Q/2⌋, ⌊Q/2⌋+1, Q-1.
func TestCenteredCoeffMatchesCRTOracle(t *testing.T) {
	ctx := smallContext(t, 6)
	enc := NewEncoder(ctx)
	sampler := ring.NewSampler(ctx.RQ, 41)
	n := ctx.Params.N()
	for level := 0; level <= ctx.Params.MaxLevel(); level++ {
		encoded, err := enc.Encode(randomSlots(ctx.Params.Slots(), 42, 3.0), level, ctx.Params.Scale)
		if err != nil {
			t.Fatal(err)
		}
		edges := ctx.RQ.NewPoly(level)
		q := ctx.RQ.Modulus(level)
		half := new(big.Int).Rsh(q, 1)
		one := big.NewInt(1)
		vals := []*big.Int{new(big.Int), half, new(big.Int).Add(half, one), new(big.Int).Sub(q, one)}
		for j := 0; j < n; j++ {
			v := vals[j%len(vals)]
			for i := 0; i <= level; i++ {
				edges.Coeffs[i][j] = new(big.Int).Mod(v, new(big.Int).SetUint64(ctx.RQ.Moduli[i])).Uint64()
			}
		}
		uniform := ctx.RQ.NewPoly(level)
		sampler.Uniform(level, uniform)
		var s crtScratch
		for name, p := range map[string]*ring.Poly{
			"encoded": encoded,
			"uniform": uniform,
			"edges":   edges,
		} {
			for j := 0; j < n; j++ {
				got, want := enc.centeredCoeff(p, j, level, &s), centeredCoeffOracle(ctx, p, j, level)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("level %d %s coeff %d: got %v want %v", level, name, j, got, want)
				}
			}
		}
	}
}
