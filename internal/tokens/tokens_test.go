package tokens

import (
	"sync"
	"sync/atomic"
	"testing"
)

// withBudget sets the budget for one test and restores the previous one.
// Every test must release what it acquired, so InUse is 0 on entry.
func withBudget(t *testing.T, n int) {
	t.Helper()
	if in := InUse(); in != 0 {
		t.Fatalf("%d tokens in use on entry", in)
	}
	old := Budget()
	SetBudget(n)
	t.Cleanup(func() { SetBudget(old) })
}

func TestAcquireNeverExceedsAvailable(t *testing.T) {
	withBudget(t, 5)
	a := Acquire(2)
	if a != 2 || InUse() != 2 {
		t.Fatalf("Acquire(2) = %d, InUse %d; want 2, 2", a, InUse())
	}
	// Only budget − InUse = 3 remain, however many are asked for.
	b := Acquire(10)
	if b != 3 {
		t.Fatalf("Acquire(10) with 3 available = %d", b)
	}
	if c := Acquire(1); c != 0 {
		t.Fatalf("Acquire(1) on an empty pool = %d", c)
	}
	if InUse() != Budget() {
		t.Fatalf("InUse %d, Budget %d after draining", InUse(), Budget())
	}
	Release(a + b)
}

func TestZeroBudgetGrantsZero(t *testing.T) {
	withBudget(t, 3)
	for _, n := range []int{0, -1} {
		if g := Acquire(n); g != 0 {
			t.Fatalf("Acquire(%d) = %d, want 0", n, g)
		}
	}
	held := Acquire(Budget())
	if g := Acquire(1); g != 0 {
		t.Fatalf("Acquire(1) with the budget drained = %d, want 0", g)
	}
	Release(held)

	// A budget below 1 clamps to 1: one token, then none.
	SetBudget(0)
	if Budget() != 1 {
		t.Fatalf("SetBudget(0) gave budget %d, want 1", Budget())
	}
	one := Acquire(4)
	if one != 1 {
		t.Fatalf("Acquire(4) at budget 1 = %d", one)
	}
	if g := Acquire(1); g != 0 {
		t.Fatalf("Acquire(1) past budget 1 = %d, want 0", g)
	}
	Release(one)
}

func TestSetBudgetWhileHeld(t *testing.T) {
	withBudget(t, 4)
	held := Acquire(3)
	if held != 3 {
		t.Fatalf("Acquire(3) = %d", held)
	}
	// Shrinking below the claims drives the pool negative: nothing is
	// granted, and the claims still count as in use.
	SetBudget(2)
	if g := Acquire(1); g != 0 {
		t.Fatalf("Acquire(1) after shrinking below the claims = %d", g)
	}
	if InUse() != 3 {
		t.Fatalf("InUse %d after shrinking to 2 with 3 held, want 3", InUse())
	}
	Release(held)
	if InUse() != 0 {
		t.Fatalf("InUse %d after releasing everything", InUse())
	}
	g := Acquire(5)
	if g != 2 {
		t.Fatalf("Acquire(5) at budget 2 = %d", g)
	}
	// Growing the budget while held adds exactly the difference.
	SetBudget(6)
	h := Acquire(10)
	if h != 4 {
		t.Fatalf("Acquire(10) after growing to 6 with 2 held = %d, want 4", h)
	}
	Release(g + h)
}

func TestReleaseAccounting(t *testing.T) {
	withBudget(t, 4)
	g := Acquire(4)
	Release(1)
	if InUse() != 3 {
		t.Fatalf("InUse %d after releasing 1 of 4", InUse())
	}
	// Non-positive releases are no-ops.
	Release(0)
	Release(-2)
	if InUse() != 3 {
		t.Fatalf("InUse %d after no-op releases, want 3", InUse())
	}
	h := Acquire(4)
	if h != 1 {
		t.Fatalf("Acquire(4) with 1 available = %d", h)
	}
	Release(h + g - 1)
	if InUse() != 0 {
		t.Fatalf("InUse %d after releasing everything", InUse())
	}
}

// TestConcurrentAcquireRelease hammers the pool from many goroutines: the
// tokens held at once never exceed the budget, and every token comes back.
// The CI race leg runs it under -race.
func TestConcurrentAcquireRelease(t *testing.T) {
	const budget, workers, rounds = 3, 8, 2000
	withBudget(t, budget)
	var held, peak atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				want := 1 + (w+i)%budget
				g := Acquire(want)
				if g < 0 || g > want {
					t.Errorf("Acquire(%d) = %d", want, g)
					return
				}
				cur := held.Add(int64(g))
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				held.Add(-int64(g))
				Release(g)
			}
		}(w)
	}
	wg.Wait()
	if p := peak.Load(); p > budget {
		t.Fatalf("%d tokens held at once, budget %d", p, budget)
	}
	if InUse() != 0 {
		t.Fatalf("InUse %d after every worker released", InUse())
	}
	g := Acquire(budget)
	Release(g)
	if g != budget {
		t.Fatalf("Acquire(%d) after the stress run = %d", budget, g)
	}
}
