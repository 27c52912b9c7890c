package ring

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
)

// Scratch-buffer arena. FHE kernels are dominated by O(N) passes over
// degree-sized uint64 slices; allocating that scratch per call makes the GC
// the bottleneck (the software analogue of an accelerator spilling operands
// to HBM instead of keeping them in the scratchpad). The pool keeps released
// buffers resident so steady-state hot paths allocate nothing.
//
// Two layers:
//
//   - BufPool hands out raw []uint64 scratch of any requested length. It is
//     the building block shared by the Ring, the BasisConverter and the TFHE
//     polynomial multiplier.
//   - Ring.Borrow / Ring.Release manage whole RNS polynomials (degree ×
//     channels), one sync.Pool per level so a Borrow never returns a poly of
//     the wrong shape.
//
// Borrowed memory is NOT zeroed: callers overwrite every word they read, as
// the kernels here all do. SetPoolDebug(true) poisons buffers on release so
// a use-after-release reads garbage deterministically instead of stale data
// that happens to look right.

// poolDebug, when non-zero, poisons every released buffer.
var poolDebug atomic.Bool

// poolPoison is the word written over released buffers in debug mode. It is
// a valid (huge) uint64 well above any 62-bit modulus, so arithmetic on a
// poisoned word fails loudly in tests comparing against the serial oracle.
const poolPoison = 0xDEADDEADDEADDEAD

// SetPoolDebug toggles poisoning of released scratch buffers. Intended for
// tests; it is safe to call concurrently with running kernels.
func SetPoolDebug(on bool) { poolDebug.Store(on) }

// PoolDebug reports whether release-poisoning is enabled.
func PoolDebug() bool { return poolDebug.Load() }

// BufPool is an arena of []uint64 scratch buffers. Buffers of any length
// can be requested; in steady state all callers of one pool request the same
// length, so recycled buffers always fit.
//
// Two tiers. A resident tier holds the working set with strong references,
// so a GC cannot evict it — sync.Pool alone loses its contents (and its
// internal per-P chains) across collection cycles, which shows up as a few
// stray bytes/op in benchmark harnesses that force a GC per run, exactly the
// steady-state noise this arena exists to eliminate. The resident tier is
// SHARDED: each shard is an independent mutex-guarded stack padded to its
// own cache line, and the limb/block scheduler routes each partition's
// scratch to the shard named by its partition index, so parallel kernel
// partitions recycle scratch with zero mutex contention and zero false
// sharing (the single-threaded Get/Put path uses shard 0 and behaves exactly
// like the old single stack). Overflow beyond a shard's stack spills to a
// shared sync.Pool, which stores *[]uint64 rather than []uint64: storing a
// bare slice boxes its three-word header on every Put (non-pointer →
// interface conversion allocates). The header boxes themselves are recycled
// through a second pool, so a steady-state Get/Put cycle allocates nothing
// on either tier.
type BufPool struct {
	shards [bufPoolShards]bufShard
	bufs   sync.Pool // overflow: *[]uint64 with the buffer attached
	hdrs   sync.Pool // spare *[]uint64 header boxes awaiting reuse
}

// bufShard is one resident stack. The pad keeps adjacent shards' mutexes and
// stack headers on distinct cache lines so concurrent partitions do not
// false-share.
type bufShard struct {
	mu       sync.Mutex
	resident [][]uint64 // GC-immune free stack, at most bufPoolResident deep
	_        [64]byte
}

// bufPoolShards is the resident-tier shard count: a power of two at least as
// large as the partition counts common on desktop/server parts, so shard
// routing is a mask. Partition indexes beyond it wrap — correctness never
// depends on exclusivity, only contention does.
const bufPoolShards = 8

// bufPoolResident caps each shard's strongly-referenced free stack: deep
// enough for every concurrent scratch need in one kernel partition
// (KSAccumulate holds ksChunk buffers at once), small enough that an idle
// pool pins little.
const bufPoolResident = 4

// bufPoolResidentMaxWords bounds which buffers the resident tier accepts:
// conversion-tile and digit scratch (tens of KB) ride it, full ring-degree
// polynomials at production N do not — pinning those across every pool in a
// long-lived process trades the stray bytes/op they'd occasionally cost for
// megabytes of heap that every later workload pays for.
const bufPoolResidentMaxWords = 1 << 15

// Get returns a length-n scratch slice with arbitrary contents. The caller
// must overwrite before reading.
func (bp *BufPool) Get(n int) []uint64 { return bp.GetShard(0, n) }

// GetShard is Get routed to the resident shard named by the caller's
// partition index (any non-negative value; it is masked down). Parallel
// kernel partitions pass their partition index so concurrent scratch traffic
// spreads across shard mutexes.
func (bp *BufPool) GetShard(shard, n int) []uint64 {
	s := &bp.shards[shard&(bufPoolShards-1)]
	s.mu.Lock()
	for i := len(s.resident) - 1; i >= 0; i-- {
		b := s.resident[i]
		if cap(b) >= n {
			last := len(s.resident) - 1
			s.resident[i] = s.resident[last]
			s.resident[last] = nil
			s.resident = s.resident[:last]
			s.mu.Unlock()
			return b[:n]
		}
	}
	s.mu.Unlock()
	if v := bp.bufs.Get(); v != nil {
		h := v.(*[]uint64)
		b := *h
		*h = nil
		bp.hdrs.Put(h)
		if cap(b) >= n {
			return b[:n]
		}
		// Wrong shape (pool shared across sizes during warmup): drop it.
	}
	return make([]uint64, n)
}

// Put returns a buffer obtained from Get to the pool.
func (bp *BufPool) Put(b []uint64) { bp.PutShard(0, b) }

// PutShard returns a buffer to the resident shard named by the caller's
// partition index (pair with GetShard; the pairing is a contention hint, not
// a correctness requirement — any buffer may come back through any shard).
func (bp *BufPool) PutShard(shard int, b []uint64) {
	if b == nil {
		return
	}
	if poolDebug.Load() {
		for i := range b {
			b[i] = poolPoison
		}
	}
	if cap(b) <= bufPoolResidentMaxWords {
		s := &bp.shards[shard&(bufPoolShards-1)]
		s.mu.Lock()
		if len(s.resident) < bufPoolResident {
			s.resident = append(s.resident, b[:cap(b)])
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
	}
	var h *[]uint64
	if v := bp.hdrs.Get(); v != nil {
		h = v.(*[]uint64)
	} else {
		h = new([]uint64)
	}
	*h = b[:cap(b)]
	bp.bufs.Put(h)
}

// polyPool recycles *Poly values of one fixed level.
type polyPool struct {
	level int
	pool  sync.Pool
}

// pools returns the per-level poly pools, building them on first use.
// Construction is cheap (no buffers are allocated until Borrow misses), so
// racing initializers at worst build the slice twice; the atomic pointer
// keeps readers safe.
func (r *Ring) pools() []*polyPool {
	if ps := r.polyPools.Load(); ps != nil {
		return *ps
	}
	ps := make([]*polyPool, len(r.SubRings))
	for l := range ps {
		ps[l] = &polyPool{level: l}
	}
	r.polyPools.CompareAndSwap(nil, &ps)
	return *r.polyPools.Load()
}

// Borrow returns a level-shaped polynomial from the ring's arena with
// arbitrary contents (use BorrowZero when the caller accumulates into it).
// Release it when done; polys that escape to callers unaware of the arena
// may simply be dropped — the GC reclaims them like any other Poly.
func (r *Ring) Borrow(level int) *Poly {
	p := r.pools()[level]
	if v := p.pool.Get(); v != nil {
		q := v.(*Poly)
		q.released = false
		if poolDebug.Load() {
			q.borrowPC, _, _, _ = runtime.Caller(1)
			r.debugLive.Add(1)
		}
		return q
	}
	q := r.NewPoly(level)
	if poolDebug.Load() {
		q.borrowPC, _, _, _ = runtime.Caller(1)
		r.debugLive.Add(1)
	}
	return q
}

// BorrowZero is Borrow with all coefficients cleared.
func (r *Ring) BorrowZero(level int) *Poly {
	p := r.Borrow(level)
	r.Zero(level, p)
	return p //alchemist:owns arena entry point: the caller inherits the release obligation
}

// Release returns a polynomial obtained from Borrow (or NewPoly — any poly
// of a shape this ring produces) to the arena. The caller must not touch p
// afterwards. Releasing the same poly twice corrupts the arena (two Borrows
// would alias one buffer); under SetPoolDebug it panics instead.
func (r *Ring) Release(p *Poly) {
	if p == nil || len(p.Coeffs) == 0 || len(p.Coeffs) > len(r.SubRings) {
		return
	}
	if len(p.Coeffs[0]) != r.N {
		return // foreign shape; let the GC have it
	}
	if poolDebug.Load() {
		if p.released {
			msg := "ring: double Release of pooled Poly"
			if p.borrowPC != 0 {
				if fn := runtime.FuncForPC(p.borrowPC); fn != nil {
					file, line := fn.FileLine(p.borrowPC)
					msg = fmt.Sprintf("%s (borrowed at %s:%d)", msg, filepath.Base(file), line)
				}
			}
			panic(msg)
		}
		for i := range p.Coeffs {
			c := p.Coeffs[i]
			for j := range c {
				c[j] = poolPoison
			}
		}
		r.debugLive.Add(-1)
	}
	p.released = true
	r.pools()[p.Level()].pool.Put(p)
}

// DebugLiveBorrows reports the Borrows not yet matched by a Release, counting
// only calls made under SetPoolDebug. A region run entirely under debug
// leaves it where it started iff every poly it borrowed went back, which is
// how tests show that an error path holds no arena memory.
func (r *Ring) DebugLiveBorrows() int64 { return r.debugLive.Load() }

// Scratch returns a single degree-N channel buffer from the ring's raw
// arena (arbitrary contents; pair with ReleaseScratch).
func (r *Ring) Scratch() []uint64 { return r.buf.Get(r.N) }

// ReleaseScratch returns a Scratch buffer to the arena.
func (r *Ring) ReleaseScratch(b []uint64) { r.buf.Put(b) }
