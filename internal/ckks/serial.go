package ckks

import (
	"encoding/binary"
	"fmt"
	"math"

	"alchemist/internal/errs"
	"alchemist/internal/ring"
)

// Ciphertext wire format: uint32 level, float64 scale, uint32 length of B,
// B poly bytes, A poly bytes.

// MarshalBinary encodes the ciphertext.
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	b, err := ct.B.MarshalBinary()
	if err != nil {
		return nil, err
	}
	a, err := ct.A.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 16, 16+len(b)+len(a))
	binary.LittleEndian.PutUint32(out[0:], uint32(ct.Level))
	binary.LittleEndian.PutUint64(out[4:], math.Float64bits(ct.Scale))
	binary.LittleEndian.PutUint32(out[12:], uint32(len(b)))
	out = append(out, b...)
	out = append(out, a...)
	return out, nil
}

// UnmarshalBinary decodes into ct.
func (ct *Ciphertext) UnmarshalBinary(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("ckks: ciphertext header truncated: %w", errs.ErrBadConfig)
	}
	ct.Level = int(binary.LittleEndian.Uint32(data[0:]))
	ct.Scale = math.Float64frombits(binary.LittleEndian.Uint64(data[4:]))
	bLen := int(binary.LittleEndian.Uint32(data[12:]))
	if bLen < 0 || 16+bLen > len(data) {
		return fmt.Errorf("ckks: ciphertext B length out of range: %w", errs.ErrBadConfig)
	}
	ct.B = new(ring.Poly)
	if err := ct.B.UnmarshalBinary(data[16 : 16+bLen]); err != nil {
		return err
	}
	ct.A = new(ring.Poly)
	if err := ct.A.UnmarshalBinary(data[16+bLen:]); err != nil {
		return err
	}
	if ct.Level != ct.B.Level() || ct.Level != ct.A.Level() {
		return fmt.Errorf("ckks: level %d disagrees with poly channels (%d, %d): %w",
			ct.Level, ct.B.Level(), ct.A.Level(), errs.ErrBadConfig)
	}
	if ct.Scale <= 0 || math.IsNaN(ct.Scale) || math.IsInf(ct.Scale, 0) {
		return fmt.Errorf("ckks: implausible scale %v: %w", ct.Scale, errs.ErrBadConfig)
	}
	return nil
}
