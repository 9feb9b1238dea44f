package ring

import "sync"

// FreeList is the one owner of reusable scratch memory on the host: a
// mutex-guarded stack of buffers. It never drops a buffer at a garbage
// collection, so a steady state that borrows and returns allocates
// nothing, whatever the collector does; in exchange it keeps its
// high-water mark live. Get and Put are safe for concurrent use; the
// zero value is an empty list.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get pops the buffer put most recently, or reports false when the
// list is empty (the caller then allocates one).
func (l *FreeList[T]) Get() (b T, ok bool) {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		var zero T
		b, ok = l.free[n-1], true
		l.free[n-1] = zero
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	return b, ok
}

// Put returns a buffer to the list. The caller must not use it after.
func (l *FreeList[T]) Put(b T) {
	l.mu.Lock()
	l.free = append(l.free, b)
	l.mu.Unlock()
}

// arena is the per-Ring scratch allocator: a free list of N-word limbs
// plus the cache of automorphism slot tables. Every hot path that would
// otherwise `make([]uint64, n)` per call (matrix-NTT intermediates,
// 4-step transposes, aliasing scratch, rescale copies, the key switch's
// and the client's throwaway polynomials) borrows from here, so
// steady-state transforms allocate nothing. The arena is created once
// per NewRing and shared by pointer across every view (AtLevel,
// WithParallelism), so every view draws on one set of limbs.
//
// Ownership rule: a borrowed limb is owned by the borrower until it is
// returned; it must not be retained afterwards, and its contents are
// undefined when borrowed (callers overwrite before reading). Limbs are
// N words long regardless of the level of the view that borrowed them.
type arena struct {
	n    int
	free FreeList[[]uint64]
	auto sync.Map // galois element (uint64) → []int slot table
}

// GetScratch borrows an N-word limb from the ring's arena. Its contents
// are undefined; return it with PutScratch.
func (r *Ring) GetScratch() []uint64 {
	if b, ok := r.scratch.free.Get(); ok {
		return b
	}
	return make([]uint64, r.scratch.n)
}

// PutScratch returns a limb borrowed with GetScratch (or a prefix of
// one) to the arena.
func (r *Ring) PutScratch(b []uint64) { r.scratch.free.Put(b[:r.scratch.n]) }

// BorrowPoly sets p to `limbs` arena limbs, reusing p's Coeffs header,
// so a Poly kept in a long-lived field costs no allocation per borrow.
// Return the limbs with ReturnPoly.
func (r *Ring) BorrowPoly(p *Poly, limbs int) {
	p.Coeffs = p.Coeffs[:0]
	for range limbs {
		p.Coeffs = append(p.Coeffs, r.GetScratch())
	}
}

// ReturnPoly returns the limbs BorrowPoly lent p and empties p.
func (r *Ring) ReturnPoly(p *Poly) {
	for i, b := range p.Coeffs {
		r.PutScratch(b)
		p.Coeffs[i] = nil
	}
	p.Coeffs = p.Coeffs[:0]
}
