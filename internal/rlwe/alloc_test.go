// The race detector makes sync.Pool drop a random fraction of Puts (to
// shake out pool races), so zero-allocation pins cannot hold under -race.
//go:build !race

package rlwe

import (
	"testing"

	"alchemist/internal/ring"
)

// TestKeySwitchAllocFree pins the warm keyswitch at 0 allocs/op under both
// ModDown steps: the decomposition shells, the arena polynomials and the
// t-exact ModDown's [t|Q] buffers and channel headers are all recycled.
func TestKeySwitchAllocFree(t *testing.T) {
	for _, md := range moddowns {
		t.Run(md.name, func(t *testing.T) {
			c := mustContext(t, chainParams(t, 9, 5, 3, 2, 55, 40, 55, md.t))
			kg := NewKeyGenerator(c, 1)
			rlk := kg.GenRelinKey(kg.GenSecretKey())
			level := c.RQ.MaxLevel()
			x := c.RQ.NewPoly(level)
			ring.NewSampler(c.RQ, 2).Uniform(level, x)
			b, a := c.KeySwitch(level, x, rlk) // warm
			c.RQ.Release(b)
			c.RQ.Release(a)
			if n := testing.AllocsPerRun(20, func() {
				b, a := c.KeySwitch(level, x, rlk)
				c.RQ.Release(b)
				c.RQ.Release(a)
			}); n != 0 {
				t.Errorf("warm KeySwitch allocates %.1f per op, want 0", n)
			}
		})
	}
}
