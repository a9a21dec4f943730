package lsm

import "fix/internal/cloud"

// viaLit is reached only from a function literal inside an exported
// method: the literal's body belongs to that method.
func (t *tree) viaLit() error {
	return t.store.Put("lit", nil)
}

func (t *tree) Scan() error {
	f := func() error { return t.viaLit() }
	return f()
}

// viaRef is reached only as a bare method value: registering a callback
// counts as an edge.
func (t *tree) viaRef() error {
	_, err := t.store.Get("ref")
	return err
}

func (t *tree) Install(register func(func() error)) {
	register(t.viaRef)
}

// viaInit is reached from init, which is a root.
func (t *tree) viaInit() error {
	return t.store.Delete("init")
}

var boot tree

func init() {
	_ = boot.viaInit()
}

// flushDead is named only through an interface method: dispatch does not
// count as cover.
type flusher interface{ flushDead() error }

func (t *tree) flushDead() error {
	return t.store.Put("dispatch", nil) // want `cloud.Store.Put call in flushDead is unreachable`
}

func (t *tree) Dispatch(f flusher) error { return f.flushDead() }

// deadLit is unreachable, and so is the store call in its literal.
func (t *tree) deadLit() func() error {
	return func() error {
		return t.store.Put("dead-lit", nil) // want `cloud.Store.Put call in deadLit is unreachable`
	}
}

// viaVar is referenced only from a package-level initializer, which is
// not a root.
func (t *tree) viaVar() error {
	return t.store.Delete("var") // want `cloud.Store.Delete call in viaVar is unreachable`
}

var hook = (*tree).viaVar

// deadConcrete calls a concrete store, which is out of scope.
func (t *tree) deadConcrete(m *cloud.MemStore) error {
	return m.Put("concrete", nil)
}
