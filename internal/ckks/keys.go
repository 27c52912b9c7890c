package ckks

import (
	"alchemist/internal/rlwe"
)

// The key types are the shared RLWE ones (internal/rlwe): CKKS keys carry
// unscaled errors.
type (
	SecretKey    = rlwe.SecretKey
	PublicKey    = rlwe.PublicKey
	SwitchingKey = rlwe.SwitchingKey
)

// EvaluationKeySet bundles the relinearization key and rotation keys.
type EvaluationKeySet struct {
	Rlk  *SwitchingKey
	Rot  map[uint64]*SwitchingKey // Galois element -> key
	Conj *SwitchingKey
}

// KeyGenerator samples keys for a context: the shared RLWE generator
// (GenSecretKey, GenSecretKeySparse, GenPublicKey, GenSwitchingKey,
// GenRelinKey, GenGaloisKey) plus the slot-rotation conveniences below.
type KeyGenerator struct {
	*rlwe.KeyGenerator
	ctx *Context
}

// NewKeyGenerator returns a deterministic key generator (test-grade
// randomness; see ring.Sampler).
func NewKeyGenerator(ctx *Context, seed int64) *KeyGenerator {
	return &KeyGenerator{KeyGenerator: rlwe.NewKeyGenerator(ctx.Context, seed), ctx: ctx}
}

// GenEvaluationKeySet generates the relinearization key plus rotation keys
// for the given rotation steps (and conjugation when conj is true).
func (kg *KeyGenerator) GenEvaluationKeySet(sk *SecretKey, rotations []int, conj bool) *EvaluationKeySet {
	rq := kg.ctx.RQ
	eks := &EvaluationKeySet{
		Rlk: kg.GenRelinKey(sk),
		Rot: map[uint64]*SwitchingKey{},
	}
	for _, r := range rotations {
		k := rq.GaloisElementForRotation(r)
		if _, ok := eks.Rot[k]; !ok {
			eks.Rot[k] = kg.GenGaloisKey(k, sk)
		}
	}
	if conj {
		eks.Conj = kg.GenGaloisKey(rq.GaloisElementConjugate(), sk)
	}
	return eks
}
