package ckks

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// evalLinearTransformOracle is the per-diagonal reference evaluation the
// baby-step/giant-step EvalLinearTransform replaced: each diagonal is
// encoded on the spot, each rotation by a diagonal's own step is
// materialized (hoisted rotations over one shared decomposition),
// multiplied in with MulPlain and summed, then the sum is rescaled. Terms
// are added in ascending step order. The evaluator needs the keys of
// oracleSteps(lt), not of lt.Rotations().
func evalLinearTransformOracle(ev *Evaluator, ct *Ciphertext, lt *LinearTransform, enc *Encoder) (*Ciphertext, error) {
	scale := ev.ctx.Params.Scale
	var acc *Ciphertext
	mulAdd := func(rotated *Ciphertext, diag []complex128) error {
		pt, err := enc.Encode(diag, rotated.Level, scale)
		if err != nil {
			return err
		}
		term := ev.MulPlain(rotated, pt, scale)
		if acc == nil {
			acc = term
			return nil
		}
		acc, err = ev.Add(acc, term)
		return err
	}
	if diag, ok := lt.Diags[0]; ok {
		if err := mulAdd(ct, diag); err != nil {
			return nil, err
		}
	}
	steps := oracleSteps(lt)
	if len(steps) > 0 {
		rotated := make([]*Ciphertext, len(steps))
		if err := ev.RotateHoistedInto(ct, steps, rotated); err != nil {
			return nil, err
		}
		for i, d := range steps {
			if err := mulAdd(rotated[i], lt.Diags[d]); err != nil {
				return nil, err
			}
		}
	}
	return ev.Rescale(acc)
}

// oracleSteps returns the transform's non-zero diagonals in ascending
// order: the rotations the per-diagonal oracle performs.
func oracleSteps(lt *LinearTransform) []int {
	var steps []int
	for d := range lt.Diags {
		if d != 0 {
			steps = append(steps, d)
		}
	}
	sort.Ints(steps)
	return steps
}

// ltAndOracleKeys returns the rotation steps both evaluations need: the
// transform's baby and giant steps and the oracle's per-diagonal steps.
func ltAndOracleKeys(lt *LinearTransform) []int {
	steps := append(lt.Rotations(), oracleSteps(lt)...)
	sort.Ints(steps)
	return steps
}

// matVec returns m·x over the first len(m) slots.
func matVec(m [][]complex128, x []complex128) []complex128 {
	out := make([]complex128, len(m))
	for i, row := range m {
		for j, v := range row {
			out[i] += v * x[j]
		}
	}
	return out
}

// maxAbsDiff is the largest |a[i] - b[i]| over b's length.
func maxAbsDiff(a, b []complex128) float64 {
	var worst float64
	for i := range b {
		worst = math.Max(worst, cmplx.Abs(a[i]-b[i]))
	}
	return worst
}

func randomMatrix(rows, cols int, seed int64) [][]complex128 {
	rng := rand.New(rand.NewSource(seed))
	m := make([][]complex128, rows)
	for i := range m {
		m[i] = make([]complex128, cols)
		for j := range m[i] {
			m[i][j] = complex(rng.Float64()*2-1, 0)
		}
	}
	return m
}

// ltCase is one transform shape for the oracle comparison.
type ltCase struct {
	name  string
	ctx   *Context
	kg    *KeyGenerator
	sk    *SecretKey
	m     [][]complex128
	level int     // evaluation level
	amp   float64 // input amplitude
}

// TestDoubleHoistedMatchesOracle compares the double-hoisted evaluation with
// the per-diagonal oracle at LoLa's two dense layers (16×32 and 10×16 on
// the N=2^11 test parameters, the second one two levels down), the bridge's
// dense SlotToCoeff at N=2^9 and both toy-bootstrap transforms at N=2^6.
// The two must agree within the noise tolerance, and the double-hoisted
// path's error against the plaintext matrix-vector product must be no
// larger than the oracle's.
func TestDoubleHoistedMatchesOracle(t *testing.T) {
	var cases []ltCase
	{
		ctx, err := NewContext(TestParams())
		if err != nil {
			t.Fatal(err)
		}
		kg := NewKeyGenerator(ctx, 61)
		sk := kg.GenSecretKey()
		top := ctx.Params.MaxLevel()
		cases = append(cases,
			ltCase{"lola-16x32", ctx, kg, sk, randomMatrix(16, 32, 62), top, 1},
			ltCase{"lola-10x16", ctx, kg, sk, randomMatrix(10, 16, 63), top - 2, 1})
	}
	{
		params, err := GenParams(9, 3, 2, 2, 45, 42, 45)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := NewContext(params)
		if err != nil {
			t.Fatal(err)
		}
		kg := NewKeyGenerator(ctx, 64)
		v, _ := EncodingMatrices(ctx)
		cases = append(cases, ltCase{"bridge-s2c-n512", ctx, kg, kg.GenSecretKey(), v, params.MaxLevel(), 0.5})
	}
	{
		ctx, kg, sk := bootstrapContext(t)
		v, vinv := EncodingMatrices(ctx)
		top := ctx.Params.MaxLevel()
		cases = append(cases,
			ltCase{"bootstrap-c2s", ctx, kg, sk, vinv, top, 0.5},
			ltCase{"bootstrap-s2c", ctx, kg, sk, v, top, 0.5})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			slots := c.ctx.Params.Slots()
			lt, err := NewLinearTransformFromMatrix(c.m, slots)
			if err != nil {
				t.Fatal(err)
			}
			enc := NewEncoder(c.ctx)
			eks := c.kg.GenEvaluationKeySet(c.sk, ltAndOracleKeys(lt), false)
			ev := NewEvaluator(c.ctx, eks)
			et := NewEncryptor(c.ctx, c.kg.GenPublicKey(c.sk), 65)
			dt := NewDecryptor(c.ctx, c.sk)

			rng := rand.New(rand.NewSource(66))
			x := make([]complex128, slots)
			for j := range c.m[0] {
				x[j] = complex((rng.Float64()*2-1)*c.amp, 0)
			}
			pt, err := enc.Encode(x, c.level, c.ctx.Params.Scale)
			if err != nil {
				t.Fatal(err)
			}
			ct := et.Encrypt(pt, c.level, c.ctx.Params.Scale)

			got, err := ev.EvalLinearTransform(ct, lt, enc)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := evalLinearTransformOracle(ev, ct, lt, enc)
			if err != nil {
				t.Fatal(err)
			}
			if got.Level != ref.Level || got.Scale != ref.Scale {
				t.Fatalf("level/scale %d/%g, oracle %d/%g", got.Level, got.Scale, ref.Level, ref.Scale)
			}
			gotZ := enc.Decode(dt.DecryptPoly(got), got.Level, got.Scale)
			refZ := enc.Decode(dt.DecryptPoly(ref), ref.Level, ref.Scale)
			want := matVec(c.m, x)
			errGot, errRef := maxAbsDiff(gotZ, want), maxAbsDiff(refZ, want)
			t.Logf("%d diagonals: error vs plaintext %.2e (oracle %.2e), vs oracle %.2e",
				len(lt.Diags), errGot, errRef, maxAbsDiff(gotZ, refZ))
			if d := maxAbsDiff(gotZ, refZ); d > 1e-4 {
				t.Fatalf("double-hoisted differs from the oracle by %.2e", d)
			}
			if errGot > errRef {
				t.Fatalf("double-hoisted error %.3e exceeds the oracle's %.3e", errGot, errRef)
			}
		})
	}
}

// TestLinearTransformConcurrentFirstUse runs the first evaluation of one
// LinearTransform from two goroutines at once: the diagonal cache must fill
// once, race-free, and both results must be byte-identical. The CI race leg
// runs it under -race.
func TestLinearTransformConcurrentFirstUse(t *testing.T) {
	h := newHarness(t, nil)
	slots := h.ctx.Params.Slots()
	m := randomMatrix(4, 8, 67)
	lt, err := NewLinearTransformFromMatrix(m, slots)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(h.ctx, h.kg.GenEvaluationKeySet(h.sk, lt.Rotations(), false))
	ct := h.encrypt(t, randomSlots(8, 68, 1))
	var outs [2]*Ciphertext
	var errs [2]error
	var wg sync.WaitGroup
	for w := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[w], errs[w] = ev.EvalLinearTransform(ct, lt, h.enc)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(lt.plans) != 1 {
		t.Fatalf("%d diagonal caches after one level, want 1", len(lt.plans))
	}
	if !h.ctx.RQ.Equal(outs[0].Level, outs[0].B, outs[1].B) || !h.ctx.RQ.Equal(outs[0].Level, outs[0].A, outs[1].A) {
		t.Fatal("concurrent first evaluations disagree")
	}
}

// TestRotationsSorted pins the strictly ascending step order key generation
// relies on for seed-reproducible keys, and that at both LoLa shapes (on
// the N=2^11 test parameters' 1024 slots) the baby-step/giant-step split
// needs fewer rotation keys than the transform has rotated diagonals.
func TestRotationsSorted(t *testing.T) {
	for _, shape := range [][2]int{{16, 32}, {10, 16}} {
		lt, err := NewLinearTransformFromMatrix(randomMatrix(shape[0], shape[1], 69), 1024)
		if err != nil {
			t.Fatal(err)
		}
		rots := lt.Rotations()
		for i := 1; i < len(rots); i++ {
			if rots[i] <= rots[i-1] {
				t.Fatalf("%dx%d: Rotations() = %v is not strictly ascending", shape[0], shape[1], rots)
			}
		}
		if rotated := len(lt.Diags) - 1; len(rots) >= rotated {
			t.Fatalf("%dx%d: %d BSGS steps for %d rotated diagonals, want fewer", shape[0], shape[1], len(rots), rotated)
		}
		t.Logf("%dx%d: %d rotated diagonals, %d BSGS steps %v", shape[0], shape[1], len(lt.Diags)-1, len(rots), rots)
	}
}

func TestLinearTransformMatchesPlainMatVec(t *testing.T) {
	params := TestParams()
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	slots := params.Slots()
	in, out := 8, 4
	rng := rand.New(rand.NewSource(51))
	m := make([][]complex128, out)
	for i := range m {
		m[i] = make([]complex128, in)
		for j := range m[i] {
			m[i][j] = complex(rng.Float64()*2-1, 0)
		}
	}
	lt, err := NewLinearTransformFromMatrix(m, slots)
	if err != nil {
		t.Fatal(err)
	}

	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 52)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	eks := kg.GenEvaluationKeySet(sk, lt.Rotations(), false)
	et := NewEncryptor(ctx, pk, 53)
	dt := NewDecryptor(ctx, sk)
	ev := NewEvaluator(ctx, eks)

	x := make([]complex128, slots)
	for j := 0; j < in; j++ {
		x[j] = complex(rng.Float64()*2-1, 0)
	}
	level := params.MaxLevel()
	pt, _ := enc.Encode(x, level, params.Scale)
	ct := et.Encrypt(pt, level, params.Scale)

	res, err := ev.EvalLinearTransform(ct, lt, enc)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(dt.DecryptPoly(res), res.Level, res.Scale)
	for i := 0; i < out; i++ {
		var want complex128
		for j := 0; j < in; j++ {
			want += m[i][j] * x[j]
		}
		if d := got[i] - want; real(d)*real(d)+imag(d)*imag(d) > 1e-6 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], want)
		}
	}
}

func TestLinearTransformErrors(t *testing.T) {
	if _, err := NewLinearTransformFromMatrix(nil, 8); err == nil {
		t.Fatal("expected empty-matrix error")
	}
	wide := [][]complex128{make([]complex128, 32)}
	if _, err := NewLinearTransformFromMatrix(wide, 8); err == nil {
		t.Fatal("expected too-wide error")
	}
}

func TestInnerSum(t *testing.T) {
	h := newHarness(t, []int{1, 2, 4, 8})
	n := 16
	slots := h.ctx.Params.Slots()
	z := make([]complex128, slots)
	var want complex128
	for i := 0; i < n; i++ {
		z[i] = complex(float64(i+1)/10, 0)
		want += z[i]
	}
	ct := h.encrypt(t, z)
	sum, err := h.ev.InnerSum(ct, n)
	if err != nil {
		t.Fatal(err)
	}
	got := h.decrypt(sum)
	if d := got[0] - want; real(d)*real(d)+imag(d)*imag(d) > 1e-6 {
		t.Fatalf("InnerSum: got %v want %v", got[0], want)
	}
	if _, err := h.ev.InnerSum(ct, 3); err == nil {
		t.Fatal("expected power-of-two error")
	}
}

func TestEvalPolyHorner(t *testing.T) {
	h := newHarness(t, nil)
	slots := h.ctx.Params.Slots()
	z := make([]complex128, slots)
	rng := rand.New(rand.NewSource(54))
	for i := range z {
		z[i] = complex(rng.Float64()*1.6-0.8, 0)
	}
	ct := h.encrypt(t, z)
	// sigmoid-ish cubic: 0.5 + 0.15x - 0.0015x^3 over [-0.8, 0.8].
	coeffs := []float64{0.5, 0.15, 0, -0.0015}
	res, err := h.ev.EvalPolyHorner(ct, coeffs, h.enc)
	if err != nil {
		t.Fatal(err)
	}
	got := h.decrypt(res)
	for i := range z {
		x := real(z[i])
		want := 0.5 + 0.15*x - 0.0015*x*x*x
		if d := real(got[i]) - want; d > 1e-2 || d < -1e-2 {
			t.Fatalf("slot %d: poly(%v) = %v want %v", i, x, real(got[i]), want)
		}
	}
	if _, err := h.ev.EvalPolyHorner(ct, nil, h.enc); err == nil {
		t.Fatal("expected empty-poly error")
	}
}

func TestMeanVariance(t *testing.T) {
	h := newHarness(t, []int{1, 2, 4, 8})
	n := 16
	slots := h.ctx.Params.Slots()
	z := make([]complex128, slots)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := float64(i%5)/5 - 0.4
		z[i] = complex(v, 0)
		sum += v
		sumSq += v * v
	}
	wantMean := sum / float64(n)
	wantVar := sumSq/float64(n) - wantMean*wantMean

	ct := h.encrypt(t, z)
	mean, variance, err := h.ev.MeanVariance(ct, n, h.enc)
	if err != nil {
		t.Fatal(err)
	}
	gotMean := real(h.decrypt(mean)[0])
	gotVar := real(h.decrypt(variance)[0])
	if d := gotMean - wantMean; d > 1e-3 || d < -1e-3 {
		t.Fatalf("mean %v want %v", gotMean, wantMean)
	}
	if d := gotVar - wantVar; d > 1e-3 || d < -1e-3 {
		t.Fatalf("variance %v want %v", gotVar, wantVar)
	}
}
