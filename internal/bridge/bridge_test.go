package bridge

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"alchemist/internal/ckks"
	"alchemist/internal/tfhe"
)

type harness struct {
	ctx *ckks.Context
	enc *ckks.Encoder
	kg  *ckks.KeyGenerator
	sk  *ckks.SecretKey
	et  *ckks.Encryptor
	dt  *ckks.Decryptor
	tf  *tfhe.Scheme
	br  *Bridge
}

var cached *harness

func setup(t testing.TB) *harness {
	t.Helper()
	if cached == nil {
		cached = newHarness(t)
	}
	return cached
}

// newHarness builds a bridge and its CKKS/TFHE schemes from fixed seeds.
func newHarness(t testing.TB) *harness {
	t.Helper()
	// CKKS: N=2^9, scale 2^42 over 45-bit q0 → bridged phases = value/8.
	params, err := ckks.GenParams(9, 3, 2, 2, 45, 42, 45)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ckks.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 71)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	tf, err := tfhe.NewScheme(tfhe.FastTestParams(), 72)
	if err != nil {
		t.Fatal(err)
	}
	br, err := New(ctx, kg, sk, tf)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		ctx: ctx,
		enc: ckks.NewEncoder(ctx),
		kg:  kg,
		sk:  sk,
		et:  ckks.NewEncryptor(ctx, pk, 73),
		dt:  ckks.NewDecryptor(ctx, sk),
		tf:  tf,
		br:  br,
	}
}

func (h *harness) encrypt(t testing.TB, z []complex128) *ckks.Ciphertext {
	t.Helper()
	level := h.ctx.Params.MaxLevel()
	pt, err := h.enc.Encode(z, level, h.ctx.Params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	return h.et.Encrypt(pt, level, h.ctx.Params.Scale)
}

func TestBridgePhasesCarrySlotValues(t *testing.T) {
	h := setup(t)
	n := h.ctx.Params.Slots()
	rng := rand.New(rand.NewSource(74))
	z := make([]complex128, n)
	for i := range z {
		z[i] = complex(rng.Float64()*2-1, 0)
	}
	ct := h.encrypt(t, z)
	count := 16
	lwes, err := h.br.ToLWE(ct, count)
	if err != nil {
		t.Fatal(err)
	}
	scale := h.br.TorusScale(ct)
	if scale < 0.05 || scale > 0.3 {
		t.Fatalf("torus scale %v outside the designed ≈1/8 band", scale)
	}
	for j := 0; j < count; j++ {
		phase := tfhe.DoubleFromTorus(h.tf.LweKey.Phase(lwes[j]))
		want := real(z[j]) * scale
		if d := math.Abs(phase - want); d > 0.01 {
			t.Fatalf("slot %d: bridged phase %v, want %v (slot %v)", j, phase, want, real(z[j]))
		}
	}
}

func TestCrossSchemeSign(t *testing.T) {
	// The paper's motivating hybrid: compute under CKKS, compare under TFHE.
	h := setup(t)
	n := h.ctx.Params.Slots()
	z := make([]complex128, n)
	rng := rand.New(rand.NewSource(75))
	for i := range z {
		v := rng.Float64()*1.6 - 0.8
		if v > -0.05 && v < 0.05 {
			v = 0.2 // keep a sign margin: near-zero values are ambiguous under noise
		}
		z[i] = complex(v, 0)
	}
	ct := h.encrypt(t, z)
	count := 12
	lwes, err := h.br.ToLWE(ct, count)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < count; j++ {
		signed, err := h.br.Sign(lwes[j])
		if err != nil {
			t.Fatal(err)
		}
		got := h.tf.DecryptBool(signed)
		want := real(z[j]) > 0
		if got != want {
			t.Fatalf("slot %d: sign(%v) = %v", j, real(z[j]), got)
		}
	}
}

func TestCrossSchemeCompare(t *testing.T) {
	h := setup(t)
	n := h.ctx.Params.Slots()
	z := make([]complex128, n)
	pairs := [][2]float64{{0.7, 0.2}, {-0.3, 0.4}, {0.5, -0.5}, {-0.2, -0.6}}
	for i, p := range pairs {
		z[2*i] = complex(p[0], 0)
		z[2*i+1] = complex(p[1], 0)
	}
	ct := h.encrypt(t, z)
	lwes, err := h.br.ToLWE(ct, 2*len(pairs))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		gt, err := h.br.Compare(lwes[2*i], lwes[2*i+1])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := h.tf.DecryptBool(gt), p[0] > p[1]; got != want {
			t.Fatalf("pair %d: compare(%v, %v) = %v", i, p[0], p[1], got)
		}
	}
}

func TestBridgeAfterHomomorphicCompute(t *testing.T) {
	// Compute (x² - 0.25) under CKKS, then test its sign under TFHE:
	// positive ⇔ |x| > 0.5.
	h := setup(t)
	n := h.ctx.Params.Slots()
	xs := []float64{0.9, 0.1, -0.8, 0.3, 0.7, -0.2}
	z := make([]complex128, n)
	for i, x := range xs {
		z[i] = complex(x, 0)
	}
	ct := h.encrypt(t, z)

	kgEv := h.kg.GenEvaluationKeySet(h.sk, nil, false)
	ev := ckks.NewEvaluator(h.ctx, kgEv)
	sq, err := ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	sq, err = ev.Rescale(sq)
	if err != nil {
		t.Fatal(err)
	}
	quarter := make([]complex128, n)
	for i := range quarter {
		quarter[i] = complex(-0.25, 0)
	}
	pt, err := h.enc.Encode(quarter, sq.Level, sq.Scale)
	if err != nil {
		t.Fatal(err)
	}
	shifted := ev.AddPlain(sq, pt)

	lwes, err := h.br.ToLWE(shifted, len(xs))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		signed, err := h.br.Sign(lwes[i])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := h.tf.DecryptBool(signed), x*x > 0.25; got != want {
			t.Fatalf("x=%v: sign(x²-0.25) = %v, want %v", x, got, want)
		}
	}
}

func TestToLWEValidation(t *testing.T) {
	h := setup(t)
	z := make([]complex128, h.ctx.Params.Slots())
	ct := h.encrypt(t, z)
	if _, err := h.br.ToLWE(ct, h.ctx.Params.Slots()+1); err == nil {
		t.Fatal("expected slot-count error")
	}
}

// TestSameSeedBridgesAgree builds two bridges from the same seeds and checks
// that they convert the same input to identical LWE samples: the bridge's
// rotation keys are drawn in a fixed order, so a seed fixes its outcomes.
func TestSameSeedBridgesAgree(t *testing.T) {
	h1, h2 := newHarness(t), newHarness(t)
	z := make([]complex128, h1.ctx.Params.Slots())
	rng := rand.New(rand.NewSource(77))
	for i := range z {
		z[i] = complex(rng.Float64()*2-1, 0)
	}
	const count = 4
	l1, err := h1.br.ToLWE(h1.encrypt(t, z), count)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := h2.br.ToLWE(h2.encrypt(t, z), count)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < count; j++ {
		if l1[j].B != l2[j].B || !slices.Equal(l1[j].A, l2[j].A) {
			t.Fatalf("sample %d differs between two bridges built from the same seeds", j)
		}
	}
}
