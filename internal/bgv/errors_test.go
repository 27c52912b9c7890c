package bgv

import (
	"errors"
	"testing"

	"alchemist/internal/errs"
)

// TestSharedModulusRejected: a modulus in both Q and P makes the t-exact
// ModDown divide by a P that is not invertible modulo that q, so MulRelin
// would decrypt to garbage with no error. NewContext must refuse the
// parameters instead, as it must a P smaller than a digit-group product.
func TestSharedModulusRejected(t *testing.T) {
	shared := TestParams()
	shared.P = append([]uint64(nil), shared.P...)
	shared.P[0] = shared.Q[1]
	small := TestParams()
	small.P = small.P[:1]
	small.Dnum = 1
	for name, p := range map[string]Parameters{"shared-Q-P": shared, "P-below-digit-group": small} {
		if _, err := NewContext(p); !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("%s: NewContext err = %v, want errs.ErrBadConfig", name, err)
		}
	}
}

// TestErrorsWrapSentinel: every evaluator and decoder failure wraps
// errs.ErrBadConfig, so callers classify it with errors.Is.
func TestErrorsWrapSentinel(t *testing.T) {
	h := newHarness(t)
	noKeys := NewEvaluator(h.ctx, nil)
	z := randSlots(h.ctx.Params.N(), h.ctx.Params.T, 61)
	ct := h.encrypt(t, z)
	bfv := h.encryptBFV(t, z)
	low := ct
	for low.Level > 0 {
		var err error
		if low, err = h.ev.Rescale(low); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func() error{
		"MulRelin without rlk": func() error { _, err := noKeys.MulRelin(ct, ct); return err },
		"MulBFV without rlk":   func() error { _, err := noKeys.MulBFV(bfv, bfv); return err },
		"nil Galois key": func() error {
			_, err := h.ev.ApplyGalois(ct, h.ctx.RQ.GaloisElementForRotation(1), nil)
			return err
		},
		"Rescale at level 0":  func() error { _, err := h.ev.Rescale(low); return err },
		"truncated unmarshal": func() error { var back Ciphertext; return back.UnmarshalBinary(blob[:6]) },
	}
	for name, run := range cases {
		if err := run(); !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("%s: err = %v, want errs.ErrBadConfig", name, err)
		}
	}
}
