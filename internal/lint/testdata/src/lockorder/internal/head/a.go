// Package head is the lock-order fixture: acquisitions must follow the
// catalog → stripe → series/group hierarchy of DESIGN.md §4.5, which
// lockgraph enforces.
package head

import "sync"

type catalog struct{ mu sync.RWMutex }

type stripe struct{ mu sync.RWMutex }

type MemSeries struct{ mu sync.Mutex }

type MemGroup struct{ mu sync.Mutex }

type Head struct {
	cat     catalog
	stripes [4]stripe
}

// ordered follows the documented hierarchy: no findings.
func (h *Head) ordered(s *MemSeries) {
	h.cat.mu.Lock()
	st := &h.stripes[0]
	st.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	st.mu.Unlock()
	h.cat.mu.Unlock()
}

// inverted takes the catalog lock under a stripe lock. closureViolation
// below inverts the same pair; one witness per ordered pair is reported.
func (h *Head) inverted(st *stripe) {
	st.mu.Lock()
	h.cat.mu.Lock() // want `lock order violation in Head.inverted: head.catalog.mu \(level 30\) acquired while head.stripe.mu \(level 40\) is held`
	h.cat.mu.Unlock()
	st.mu.Unlock()
}

// sequential release-then-acquire is not nesting: no findings.
func (h *Head) sequential(st *stripe) {
	st.mu.RLock()
	st.mu.RUnlock()
	h.cat.mu.Lock()
	h.cat.mu.Unlock()
}

// deferredHeld shows that a deferred Unlock keeps the object lock held,
// so the later stripe read lock inverts the order.
func (h *Head) deferredHeld(st *stripe, g *MemGroup) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st.mu.RLock() // want `lock order violation in Head.deferredHeld: head.stripe.mu \(level 40\) acquired while head.MemGroup.mu \(level 50\) is held`
	st.mu.RUnlock()
}

// closureScoped: a lock held to scope end inside a function literal must
// not leak into the enclosing function's walk (the WAL replay callbacks
// rely on this).
func (h *Head) closureScoped(st *stripe, s *MemSeries) {
	cb := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	cb()
	st.mu.RLock() // ok: the closure's object lock is not held here
	st.mu.RUnlock()
}

// closureViolation: ordering is still enforced inside the literal itself.
func (h *Head) closureViolation(st *stripe) func() {
	return func() {
		st.mu.Lock()
		h.cat.mu.Lock() // same stripe → catalog pair as inverted
		h.cat.mu.Unlock()
		st.mu.Unlock()
	}
}

// objectUnderStripe is the documented fast path: no findings.
func (h *Head) objectUnderStripe(s *MemSeries) {
	st := &h.stripes[1]
	st.mu.RLock()
	s.mu.Lock()
	s.mu.Unlock()
	st.mu.RUnlock()
}
