package bgv

import (
	"encoding/binary"
	"fmt"

	"alchemist/internal/errs"
	"alchemist/internal/ring"
)

// Ciphertext wire format: uint32 level, uint32 length of B, B poly bytes,
// A poly bytes.

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
	out := make([]byte, 8, 8+len(b)+len(a))
	binary.LittleEndian.PutUint32(out[0:], uint32(ct.Level))
	binary.LittleEndian.PutUint32(out[4:], uint32(len(b)))
	out = append(out, b...)
	out = append(out, a...)
	return out, nil
}

// UnmarshalBinary decodes into ct.
func (ct *Ciphertext) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("bgv: ciphertext header truncated: %w", errs.ErrBadConfig)
	}
	ct.Level = int(binary.LittleEndian.Uint32(data[0:]))
	bLen := int(binary.LittleEndian.Uint32(data[4:]))
	if bLen < 0 || 8+bLen > len(data) {
		return fmt.Errorf("bgv: ciphertext B length out of range: %w", errs.ErrBadConfig)
	}
	ct.B = new(ring.Poly)
	if err := ct.B.UnmarshalBinary(data[8 : 8+bLen]); err != nil {
		return err
	}
	ct.A = new(ring.Poly)
	if err := ct.A.UnmarshalBinary(data[8+bLen:]); err != nil {
		return err
	}
	if ct.Level != ct.B.Level() || ct.Level != ct.A.Level() {
		return fmt.Errorf("bgv: level disagrees with poly channels: %w", errs.ErrBadConfig)
	}
	return nil
}
