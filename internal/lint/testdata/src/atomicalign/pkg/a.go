// Package pkg is the atomicalign fixture: a 64-bit sync/atomic function
// on a plain word is a finding, wherever the word sits; typed atomics and
// the 32-bit functions are not.
package pkg

import "sync/atomic"

// counters has a bool before the atomic field, pushing it to offset 4 on
// GOARCH=386 where int64 is only 4-byte aligned.
type counters struct {
	closed bool
	n      int64
	spare  int64
}

func (c *counters) bump() {
	atomic.AddInt64(&c.n, 1) // want `atomic.AddInt64 on a plain int64; use atomic.Int64`
}

func (c *counters) read() int64 {
	return atomic.LoadInt64(&c.n) // want `atomic.LoadInt64 on a plain int64; use atomic.Int64`
}

func (c *counters) mixed() int64 {
	return c.n
}

// aligned keeps the atomic word first, which is still a plain word.
type aligned struct {
	n      uint64
	closed bool
}

func (a *aligned) bump() uint64 {
	return atomic.AddUint64(&a.n, 1) // want `atomic.AddUint64 on a plain uint64; use atomic.Uint64`
}

// typed uses the typed atomics and a 32-bit function: no finding.
type typed struct {
	closed bool
	n      atomic.Int64
	flags  int32
}

func (t *typed) bump() int64 {
	atomic.AddInt32(&t.flags, 1)
	return t.n.Add(1)
}
