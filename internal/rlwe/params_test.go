package rlwe

import (
	"errors"
	"testing"

	"alchemist/internal/errs"
)

// TestValidateRejects has one case per basis rule; each must fail with
// errs.ErrBadConfig, and the unmodified set must pass.
func TestValidateRejects(t *testing.T) {
	base := chainParams(t, 8, 3, 2, 2, 50, 40, 50, 0)
	if err := base.Validate(); err != nil {
		t.Fatalf("base parameters rejected: %v", err)
	}
	cases := []struct {
		name string
		edit func(p *Parameters)
	}{
		{"logN-small", func(p *Parameters) { p.LogN = 2 }},
		{"logN-large", func(p *Parameters) { p.LogN = 18 }},
		{"empty-Q", func(p *Parameters) { p.Q = nil }},
		{"dnum-zero", func(p *Parameters) { p.Dnum = 0 }},
		{"dnum-above-L", func(p *Parameters) { p.Dnum = len(p.Q) + 1 }},
		{"empty-P", func(p *Parameters) { p.P = nil }},
		{"repeat-in-Q", func(p *Parameters) { p.Q[2] = p.Q[1] }},
		{"repeat-across-Q-P", func(p *Parameters) { p.P[0] = p.Q[1] }},
		{"repeat-in-P", func(p *Parameters) { p.P[1] = p.P[0] }},
		{"P-below-digit-group", func(p *Parameters) { p.P = p.P[:1]; p.Dnum = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			p.Q = append([]uint64(nil), base.Q...)
			p.P = append([]uint64(nil), base.P...)
			tc.edit(&p)
			if err := p.Validate(); !errors.Is(err, errs.ErrBadConfig) {
				t.Fatalf("Validate: err = %v, want errs.ErrBadConfig", err)
			}
			if _, err := NewContext(p); !errors.Is(err, errs.ErrBadConfig) {
				t.Fatalf("NewContext: err = %v, want errs.ErrBadConfig", err)
			}
		})
	}
}
