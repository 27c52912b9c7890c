// Package rlwe is the scheme-independent RLWE core that CKKS, BGV and BFV
// share: the Q/P ring pair with its hybrid-keyswitch precomputations, key
// generation, public-key encryption, the fused hybrid key switch with its
// hoisted Galois step, and the tensor-and-relinearize multiplication.
//
// The schemes differ in two places only, and both follow from the plaintext
// modulus T of the parameters:
//
//   - every sampled error is scaled by T (by 1 when T = 0);
//   - the keyswitch closes with the exact ModDown of ring.Extender when
//     T = 0 (CKKS) and with the t-exact ModDown when T > 0 (BGV/BFV), which
//     divides by P without disturbing the message modulo t.
package rlwe

import (
	"fmt"
	"math/big"

	"alchemist/internal/errs"
)

// Parameters is the scheme-independent part of a parameter set. The scheme
// packages fill it from their own Parameters.
type Parameters struct {
	LogN  int      // ring degree N = 2^LogN
	Q     []uint64 // ciphertext moduli q_0 … q_L
	P     []uint64 // special moduli of the hybrid key switch
	Dnum  int      // number of decomposition (digit) groups
	Sigma float64  // error standard deviation
	T     uint64   // plaintext modulus of the t-exact schemes; 0 for CKKS
}

// N returns the ring degree.
func (p Parameters) N() int { return 1 << p.LogN }

// Alpha returns the number of moduli per digit group, ceil((L+1)/Dnum).
func (p Parameters) Alpha() int { return (len(p.Q) + p.Dnum - 1) / p.Dnum }

// Validate checks the basis the hybrid key switch runs on: the ring degree,
// the digit count, a non-empty P, no modulus shared anywhere in Q ∪ P, and
// P ≥ every digit-group product D_g (or the d_g·e/P noise term swamps the
// plaintext). Every failure wraps errs.ErrBadConfig.
func (p Parameters) Validate() error {
	if p.LogN < 3 || p.LogN > 17 {
		return fmt.Errorf("rlwe: LogN=%d out of range [3,17]: %w", p.LogN, errs.ErrBadConfig)
	}
	if len(p.Q) == 0 {
		return fmt.Errorf("rlwe: empty modulus chain: %w", errs.ErrBadConfig)
	}
	if p.Dnum < 1 || p.Dnum > len(p.Q) {
		return fmt.Errorf("rlwe: Dnum=%d out of range [1,%d]: %w", p.Dnum, len(p.Q), errs.ErrBadConfig)
	}
	if len(p.P) == 0 {
		return fmt.Errorf("rlwe: need at least one special modulus: %w", errs.ErrBadConfig)
	}
	seen := map[uint64]bool{}
	for _, q := range append(append([]uint64{}, p.Q...), p.P...) {
		if seen[q] {
			return fmt.Errorf("rlwe: duplicate modulus %d: %w", q, errs.ErrBadConfig)
		}
		seen[q] = true
	}
	pProd := big.NewFloat(1)
	for _, pi := range p.P {
		pProd.Mul(pProd, new(big.Float).SetUint64(pi))
	}
	alpha := p.Alpha()
	for g := 0; g*alpha < len(p.Q); g++ {
		dg := big.NewFloat(1)
		for i := g * alpha; i < (g+1)*alpha && i < len(p.Q); i++ {
			dg.Mul(dg, new(big.Float).SetUint64(p.Q[i]))
		}
		if pProd.Cmp(dg) < 0 {
			return fmt.Errorf("rlwe: special modulus P is smaller than digit group %d; increase K or Dnum: %w", g, errs.ErrBadConfig)
		}
	}
	return nil
}
