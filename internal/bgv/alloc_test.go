// The race detector makes sync.Pool drop a random fraction of Puts (to
// shake out pool races), so zero-allocation pins cannot hold under -race.
//go:build !race

package bgv

import "testing"

// TestMulRelinKeySwitchAllocFree pins what MulRelin runs at 0 allocs/op once
// warm: the relinearization keyswitch with its t-exact ModDown, and the
// whole tensor-and-relinearize core on arena halves. (MulRelin itself adds
// only the Ciphertext shell it returns.)
func TestMulRelinKeySwitchAllocFree(t *testing.T) {
	h := newHarness(t)
	ctx := h.ctx
	ct := h.encrypt(t, randSlots(ctx.Params.N(), ctx.Params.T, 71))
	level := ct.Level
	keySwitch := func() {
		b, a := ctx.KeySwitch(level, ct.A, h.rlk)
		ctx.RQ.Release(b)
		ctx.RQ.Release(a)
	}
	mulRelin := func() {
		b, a := ctx.RQ.Borrow(level), ctx.RQ.Borrow(level)
		ctx.MulRelin(level, ct.B, ct.A, ct.B, ct.A, h.rlk, b, a)
		ctx.RQ.Release(b)
		ctx.RQ.Release(a)
	}
	for name, run := range map[string]func(){"keyswitch": keySwitch, "tensor+relinearize": mulRelin} {
		run() // warm
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("warm %s allocates %.1f per op, want 0", name, n)
		}
	}
}
