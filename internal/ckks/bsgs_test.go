package ckks

import (
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"alchemist/internal/errs"
	"alchemist/internal/ring"
)

// diagSet returns a transform whose diagonals are ds over the given slot
// count; the values are irrelevant to the split.
func diagSet(ds []int, slots int) *LinearTransform {
	lt := &LinearTransform{Diags: map[int][]complex128{}}
	for _, d := range ds {
		lt.Diags[d] = make([]complex128, slots)
	}
	return lt
}

// splitCost is the cost bsgsSplit minimises: the non-zero baby steps plus
// ltGiantCost per non-zero giant step.
func splitCost(terms []bsgsTerm) int {
	babies, giants := map[int]bool{}, map[int]bool{}
	for _, t := range terms {
		if t.baby != 0 {
			babies[t.baby] = true
		}
		if t.giant != 0 {
			giants[t.giant] = true
		}
	}
	return len(babies) + ltGiantCost*len(giants)
}

// TestBSGSSplit checks the baby-step/giant-step split on the LoLa and
// bridge shapes, the edge cases and random diagonal sets: every diagonal
// lands in exactly one (giant, baby) pair with giant + baby ≡ diag, giant a
// multiple of n1 and 0 ≤ baby < n1; the chosen n1 costs no more than any
// width in [1, slots] (so the bounded search loses nothing); and
// Rotations() is exactly the non-zero babies ∪ giants, ascending and
// unique.
func TestBSGSSplit(t *testing.T) {
	type splitCase struct {
		name  string
		slots int
		ds    []int
		n1    int // pinned baby width, 0 = not pinned
	}
	sortedDiags := func(lt *LinearTransform) []int {
		var ds []int
		for d := range lt.Diags {
			ds = append(ds, d)
		}
		sort.Ints(ds)
		return ds
	}
	lola1, err := NewLinearTransformFromMatrix(randomMatrix(16, 32, 62), 1024)
	if err != nil {
		t.Fatal(err)
	}
	lola2, err := NewLinearTransformFromMatrix(randomMatrix(10, 16, 63), 1024)
	if err != nil {
		t.Fatal(err)
	}
	dense := make([]int, 256)
	for i := range dense {
		dense[i] = i
	}
	cases := []splitCase{
		{"lola-16x32", 1024, sortedDiags(lola1), 16},
		{"lola-10x16", 1024, sortedDiags(lola2), 9},
		{"bridge-dense-256", 256, dense, 0},
		{"only-zero", 64, []int{0}, 0},
		{"single-rotated", 64, []int{5}, 0},
		{"single-wrapped", 64, []int{60}, 0},
		{"two-halves", 8, []int{0, 4}, 0},
	}
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 40; i++ {
		slots := 8 << (i % 7)
		seen := map[int]bool{}
		for k := rng.Intn(slots) + 1; k > 0; k-- {
			seen[rng.Intn(slots)] = true
		}
		var ds []int
		for d := range seen {
			ds = append(ds, d)
		}
		sort.Ints(ds)
		cases = append(cases, splitCase{fmt.Sprintf("random-%d-slots%d", i, slots), slots, ds, 0})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n1, terms := bsgsSplit(c.ds, c.slots)
			if c.n1 != 0 && n1 != c.n1 {
				t.Fatalf("n1 = %d, want %d", n1, c.n1)
			}
			if len(terms) != len(c.ds) {
				t.Fatalf("%d terms for %d diagonals", len(terms), len(c.ds))
			}
			placed := map[int]bool{}
			for _, tm := range terms {
				if placed[tm.diag] {
					t.Fatalf("diagonal %d placed twice", tm.diag)
				}
				placed[tm.diag] = true
				if tm.baby < 0 || tm.baby >= n1 || tm.giant%n1 != 0 {
					t.Fatalf("diagonal %d at (giant %d, baby %d) with n1 = %d", tm.diag, tm.giant, tm.baby, n1)
				}
				if ((tm.giant+tm.baby-tm.diag)%c.slots+c.slots)%c.slots != 0 {
					t.Fatalf("giant %d + baby %d ≢ diagonal %d mod %d", tm.giant, tm.baby, tm.diag, c.slots)
				}
			}
			for _, d := range c.ds {
				if !placed[d] {
					t.Fatalf("diagonal %d not placed", d)
				}
			}

			best := splitCost(terms)
			for width := 1; width <= c.slots; width++ {
				alt := make([]bsgsTerm, len(c.ds))
				for j, d := range c.ds {
					s := d
					if s > c.slots/2 {
						s -= c.slots
					}
					g, b := bsgsPlace(s, width, c.slots)
					alt[j] = bsgsTerm{d, g, b}
				}
				if cost := splitCost(alt); cost < best {
					t.Fatalf("n1 = %d costs %d, but width %d costs %d", n1, best, width, cost)
				}
			}

			want := map[int]bool{}
			for _, tm := range terms {
				if tm.baby != 0 {
					want[tm.baby] = true
				}
				if tm.giant != 0 {
					want[tm.giant] = true
				}
			}
			rots := diagSet(c.ds, c.slots).Rotations()
			t.Logf("%d diagonals: n1 = %d, %d rotation keys", len(c.ds), n1, len(rots))
			if len(rots) != len(want) {
				t.Fatalf("Rotations() = %v, want the %d non-zero babies and giants", rots, len(want))
			}
			for i, r := range rots {
				if !want[r] || (i > 0 && r <= rots[i-1]) {
					t.Fatalf("Rotations() = %v: not the ascending, unique non-zero babies ∪ giants", rots)
				}
			}
		})
	}
}

// TestLinearTransformMissingKey drops one baby-step key, then one giant-step
// key, then every key: EvalLinearTransform must fail with errs.ErrBadConfig
// and leave no arena polynomial borrowed. Rotate and RotateHoistedInto
// report a missing key the same way.
func TestLinearTransformMissingKey(t *testing.T) {
	ctx, err := NewContext(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	slots := ctx.Params.Slots()
	lt, err := NewLinearTransformFromMatrix(randomMatrix(16, 32, 72), slots)
	if err != nil {
		t.Fatal(err)
	}
	rots := lt.Rotations()
	if rots[0] >= 0 {
		t.Fatalf("Rotations() = %v: want a negative giant step first", rots)
	}
	kg := NewKeyGenerator(ctx, 73)
	sk := kg.GenSecretKey()
	full := kg.GenEvaluationKeySet(sk, rots, false)
	enc := NewEncoder(ctx)
	level := ctx.Params.MaxLevel()
	pt, err := enc.Encode(randomSlots(32, 74, 1), level, ctx.Params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	ct := NewEncryptor(ctx, kg.GenPublicKey(sk), 75).Encrypt(pt, level, ctx.Params.Scale)
	// Fill the diagonal cache first, so the failing calls below only
	// exercise the evaluation path.
	warm, err := NewEvaluator(ctx, full).EvalLinearTransform(ct, lt, enc)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Recycle(warm)

	without := func(step int) *EvaluationKeySet {
		eks := &EvaluationKeySet{Rlk: full.Rlk, Rot: map[uint64]*SwitchingKey{}}
		drop := ctx.RQ.GaloisElementForRotation(step)
		for k, key := range full.Rot {
			if k != drop {
				eks.Rot[k] = key
			}
		}
		return eks
	}
	ring.SetPoolDebug(true)
	defer ring.SetPoolDebug(false)
	for _, c := range []struct {
		name string
		eks  *EvaluationKeySet
		step int
	}{
		{"giant", without(rots[0]), rots[0]},
		{"baby", without(rots[1]), rots[1]},
		{"no-keys", nil, rots[0]},
	} {
		t.Run(c.name, func(t *testing.T) {
			ev := NewEvaluator(ctx, c.eks)
			liveQ, liveP := ctx.RQ.DebugLiveBorrows(), ctx.RP.DebugLiveBorrows()
			if _, err := ev.EvalLinearTransform(ct, lt, enc); !errors.Is(err, errs.ErrBadConfig) {
				t.Fatalf("EvalLinearTransform: err = %v, want errs.ErrBadConfig", err)
			}
			if _, err := ev.Rotate(ct, c.step); !errors.Is(err, errs.ErrBadConfig) {
				t.Fatalf("Rotate(%d): err = %v, want errs.ErrBadConfig", c.step, err)
			}
			outs := make([]*Ciphertext, 1)
			if err := ev.RotateHoistedInto(ct, []int{c.step}, outs); !errors.Is(err, errs.ErrBadConfig) {
				t.Fatalf("RotateHoistedInto(%d): err = %v, want errs.ErrBadConfig", c.step, err)
			}
			if dq, dp := ctx.RQ.DebugLiveBorrows()-liveQ, ctx.RP.DebugLiveBorrows()-liveP; dq != 0 || dp != 0 {
				t.Fatalf("failed calls left %d Q and %d P polynomials borrowed", dq, dp)
			}
		})
	}
}

// bsgsFixture is one fuzz context: parameters at one ring degree, its keys,
// and a rotation-key cache shared across fuzz inputs.
type bsgsFixture struct {
	ctx  *Context
	kg   *KeyGenerator
	sk   *SecretKey
	enc  *Encoder
	et   *Encryptor
	dt   *Decryptor
	rlk  *SwitchingKey
	keys map[uint64]*SwitchingKey
}

var (
	bsgsFixtureMu sync.Mutex
	bsgsFixtures  = map[int]*bsgsFixture{}
)

// bsgsFixtureFor returns the cached fixture at N = 2^logN.
func bsgsFixtureFor(t *testing.T, logN int) *bsgsFixture {
	bsgsFixtureMu.Lock()
	defer bsgsFixtureMu.Unlock()
	if fx, ok := bsgsFixtures[logN]; ok {
		return fx
	}
	params, err := GenParams(logN, 3, 2, 2, 45, 42, 45)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, int64(80+logN))
	sk := kg.GenSecretKey()
	fx := &bsgsFixture{
		ctx: ctx, kg: kg, sk: sk,
		enc:  NewEncoder(ctx),
		et:   NewEncryptor(ctx, kg.GenPublicKey(sk), int64(90+logN)),
		dt:   NewDecryptor(ctx, sk),
		rlk:  kg.GenRelinKey(sk),
		keys: map[uint64]*SwitchingKey{},
	}
	bsgsFixtures[logN] = fx
	return fx
}

// evaluator returns an evaluator holding the keys for steps, generating the
// ones not yet cached.
func (fx *bsgsFixture) evaluator(steps []int) *Evaluator {
	bsgsFixtureMu.Lock()
	defer bsgsFixtureMu.Unlock()
	eks := &EvaluationKeySet{Rlk: fx.rlk, Rot: map[uint64]*SwitchingKey{}}
	for _, s := range steps {
		k := fx.ctx.RQ.GaloisElementForRotation(s)
		if fx.keys[k] == nil {
			fx.keys[k] = fx.kg.GenGaloisKey(k, fx.sk)
		}
		eks.Rot[k] = fx.keys[k]
	}
	return NewEvaluator(fx.ctx, eks)
}

// Diagonal-set shapes for FuzzLinearTransformBSGS.
const (
	shapeRandom = iota // a random subset, wrap-around negatives included
	shapeZero          // only d = 0
	shapeSingle        // one rotated diagonal
	shapeDense         // every diagonal
	shapeBand          // a band around d = 0 with wrapped negatives
	shapeCount
)

// FuzzLinearTransformBSGS evaluates random diagonal sets at N = 2^6…2^9 on
// the baby-step/giant-step path and with the per-diagonal oracle (given the
// keys for its own steps). The two must agree within 1e-4, and the BSGS
// result must match the plaintext product within the same bound.
func FuzzLinearTransformBSGS(f *testing.F) {
	f.Add(uint8(0), uint8(shapeRandom), uint16(9), int64(1))
	f.Add(uint8(0), uint8(shapeZero), uint16(0), int64(2))
	f.Add(uint8(1), uint8(shapeSingle), uint16(3), int64(3))
	f.Add(uint8(0), uint8(shapeSingle), uint16(30), int64(4))
	f.Add(uint8(2), uint8(shapeDense), uint16(0), int64(5))
	f.Add(uint8(1), uint8(shapeBand), uint16(12), int64(6))
	f.Add(uint8(3), uint8(shapeRandom), uint16(40), int64(7))
	f.Fuzz(func(t *testing.T, logNSel, shape uint8, count uint16, seed int64) {
		logN := 6 + int(logNSel%4)
		fx := bsgsFixtureFor(t, logN)
		slots := fx.ctx.Params.Slots()
		rng := rand.New(rand.NewSource(seed))

		set := map[int]bool{}
		switch shape % shapeCount {
		case shapeRandom:
			for k := int(count)%slots + 1; k > 0; k-- {
				set[rng.Intn(slots)] = true
			}
		case shapeZero:
			set[0] = true
		case shapeSingle:
			set[1+int(count)%(slots-1)] = true
		case shapeDense:
			for d := 0; d < slots; d++ {
				set[d] = true
			}
		case shapeBand:
			half := int(count) % (slots / 2)
			for s := -half; s <= half; s++ {
				set[(s+slots)%slots] = true
			}
		}
		lt := &LinearTransform{Diags: map[int][]complex128{}}
		for d := range set {
			v := make([]complex128, slots)
			for j := range v {
				v[j] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			}
			lt.Diags[d] = v
		}
		x := make([]complex128, slots)
		for j := range x {
			x[j] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		want := make([]complex128, slots)
		for d, v := range lt.Diags {
			for j := range want {
				want[j] += v[j] * x[(j+d)%slots]
			}
		}

		ev := fx.evaluator(ltAndOracleKeys(lt))
		level := fx.ctx.Params.MaxLevel()
		pt, err := fx.enc.Encode(x, level, fx.ctx.Params.Scale)
		if err != nil {
			t.Fatal(err)
		}
		ct := fx.et.Encrypt(pt, level, fx.ctx.Params.Scale)
		got, err := ev.EvalLinearTransform(ct, lt, fx.enc)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := evalLinearTransformOracle(ev, ct, lt, fx.enc)
		if err != nil {
			t.Fatal(err)
		}
		gotZ := fx.enc.Decode(fx.dt.DecryptPoly(got), got.Level, got.Scale)
		refZ := fx.enc.Decode(fx.dt.DecryptPoly(ref), ref.Level, ref.Scale)
		for j := range want {
			if d := cmplx.Abs(gotZ[j] - refZ[j]); d > 1e-4 {
				t.Fatalf("N=2^%d, %d diagonals: slot %d differs from the oracle by %.2e", logN, len(set), j, d)
			}
			if d := cmplx.Abs(gotZ[j] - want[j]); d > 1e-4 {
				t.Fatalf("N=2^%d, %d diagonals: slot %d differs from the plaintext by %.2e", logN, len(set), j, d)
			}
		}
	})
}
