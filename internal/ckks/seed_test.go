package ckks

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math/rand"
	"sort"
	"testing"

	"alchemist/internal/ring"
)

// seedDigest is the SHA-256 of the key set and three evaluator outputs at
// TestParams() for fixed seeds (see TestSeedStability). A change that
// perturbs one sampled coefficient, one key byte or one output limb changes
// it; a pure refactor must not.
const seedDigest = "523bc1bc2605021432670304a44e7415baec5723cedd8f225848e442d65099d4"

// TestSeedStability pins CKKS byte-for-byte for a fixed seed: the serialized
// secret, public, relinearization, rotation and conjugation keys, then one
// MulRelin, one Rotate and one EvalLinearTransform output.
func TestSeedStability(t *testing.T) {
	slots := TestParams().Slots()
	rng := rand.New(rand.NewSource(63))
	m := make([][]complex128, 8)
	for j := range m {
		m[j] = make([]complex128, 16)
		for c := range m[j] {
			m[j][c] = complex(rng.Float64()*2-1, 0)
		}
	}
	lt, err := NewLinearTransformFromMatrix(m, slots)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, append(lt.Rotations(), 3))
	hw := sha256.New()
	writePoly := func(p *ring.Poly) {
		b, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		hw.Write(b)
	}
	writeKey := func(k *SwitchingKey) {
		for g := range k.BQ {
			writePoly(k.BQ[g])
			writePoly(k.AQ[g])
			writePoly(k.BP[g])
			writePoly(k.AP[g])
		}
	}
	writePoly(h.sk.Q)
	writePoly(h.sk.P)
	writePoly(h.pk.B)
	writePoly(h.pk.A)
	writeKey(h.eks.Rlk)
	gal := make([]uint64, 0, len(h.eks.Rot))
	for k := range h.eks.Rot {
		gal = append(gal, k)
	}
	sort.Slice(gal, func(i, j int) bool { return gal[i] < gal[j] })
	for _, k := range gal {
		writeKey(h.eks.Rot[k])
	}
	writeKey(h.eks.Conj)

	ct1 := h.encrypt(t, randomSlots(slots, 61, 1.0))
	ct2 := h.encrypt(t, randomSlots(slots, 62, 1.0))
	prod, err := h.ev.MulRelin(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	writeCt(t, hw, prod)
	rot, err := h.ev.Rotate(ct1, 3)
	if err != nil {
		t.Fatal(err)
	}
	writeCt(t, hw, rot)

	ltOut, err := h.ev.EvalLinearTransform(ct1, lt, h.enc)
	if err != nil {
		t.Fatal(err)
	}
	writeCt(t, hw, ltOut)

	if got := hex.EncodeToString(hw.Sum(nil)); got != seedDigest {
		t.Fatalf("seed digest %s, want %s: keys or outputs changed for a fixed seed", got, seedDigest)
	}
}

func writeCt(t *testing.T, hw hash.Hash, ct *Ciphertext) {
	t.Helper()
	b, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	hw.Write(b)
}
