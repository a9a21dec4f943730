package head

import (
	"errors"
	"fmt"
)

// ErrInvalidBatch wraps every error of AppendBatch's validation phase: an
// unknown series or group ID, a slot out of range, or a values row that
// does not match its slots. Nothing of such a batch was applied, and
// sending it again fails the same way.
var ErrInvalidBatch = errors.New("head: invalid batch")

// Batch is one write request: individual-series samples by ID and group
// rounds by group ID and member slots. AppendBatch applies it all or
// nothing and logs it as one WAL record. A Batch is reusable after Reset;
// AddGroup keeps references to its slots and vals until then.
type Batch struct {
	samples []batchSample
	rounds  []batchRound
	n       int // samples, counting each round's values
	maxT    int64

	// Resolved by AppendBatch's validation phase, index-aligned with
	// samples and rounds.
	series []*MemSeries
	groups []*MemGroup
}

type batchSample struct {
	id uint64
	t  int64
	v  float64
}

type batchRound struct {
	gid   uint64
	slots []int
	t     int64
	vals  []float64
}

// Add queues one sample of the series with the given ID.
func (b *Batch) Add(id uint64, t int64, v float64) {
	b.samples = append(b.samples, batchSample{id: id, t: t, v: v})
	b.note(t, 1)
}

// AddGroup queues one shared-timestamp round of the group with the given
// ID: vals[i] is the value of member slot slots[i].
func (b *Batch) AddGroup(gid uint64, slots []int, t int64, vals []float64) {
	b.rounds = append(b.rounds, batchRound{gid: gid, slots: slots, t: t, vals: vals})
	b.note(t, len(vals))
}

func (b *Batch) note(t int64, n int) {
	if b.n == 0 || t > b.maxT {
		b.maxT = t
	}
	b.n += n
}

// Len returns the number of samples queued, counting every value of every
// group round.
func (b *Batch) Len() int { return b.n }

// MaxT returns the newest queued timestamp (0 when the batch is empty).
func (b *Batch) MaxT() int64 { return b.maxT }

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() {
	clear(b.rounds) // drop the callers' slots/vals
	clear(b.series)
	clear(b.groups)
	*b = Batch{
		samples: b.samples[:0],
		rounds:  b.rounds[:0],
		series:  b.series[:0],
		groups:  b.groups[:0],
	}
}

// AppendBatch applies a batch all or nothing (DESIGN.md §4.6). The first
// phase resolves every series and group ID and checks every round's slots
// against its group and its values; it changes nothing, so a validation
// error leaves no sample, no sequence advance and no WAL bytes behind. The
// second phase logs and ingests each item under its own lock, staging its
// WAL entry in the same critical section as its sequence increment, and
// then commits the staged entries as one record. An error in the second
// phase (a failed ingest or WAL write) still commits what was staged, so
// the log matches the head, and returns the error. Every validation error
// wraps ErrInvalidBatch; no error after validation does. applied reports
// whether validation passed and the second phase ran.
func (h *Head) AppendBatch(b *Batch) (applied bool, err error) {
	if err := h.resolveBatch(b); err != nil {
		return false, err
	}
	return true, h.commit(h.applyBatch(b))
}

// resolveBatch is AppendBatch's validation phase.
func (h *Head) resolveBatch(b *Batch) error {
	b.series = b.series[:0]
	for _, smp := range b.samples {
		s, err := h.resolveSeries(smp.id)
		if err != nil {
			return err
		}
		b.series = append(b.series, s)
	}
	b.groups = b.groups[:0]
	for _, r := range b.rounds {
		g, err := h.resolveGroup(r.gid, r.slots, r.vals)
		if err != nil {
			return err
		}
		b.groups = append(b.groups, g)
	}
	return nil
}

// resolveSeries validates one sample's series ID.
func (h *Head) resolveSeries(id uint64) (*MemSeries, error) {
	s, ok := h.lookupSeries(id)
	if !ok {
		return nil, fmt.Errorf("%w: unknown series id %d", ErrInvalidBatch, id)
	}
	return s, nil
}

// resolveGroup validates one round's group ID, slots and values.
func (h *Head) resolveGroup(gid uint64, slots []int, vals []float64) (*MemGroup, error) {
	if len(slots) != len(vals) {
		return nil, fmt.Errorf("%w: group %d: %d slots vs %d values", ErrInvalidBatch, gid, len(slots), len(vals))
	}
	g, ok := h.lookupGroup(gid)
	if !ok {
		return nil, fmt.Errorf("%w: unknown group id %d", ErrInvalidBatch, gid)
	}
	// Members only grow, so a slot valid now stays valid for the apply
	// phase.
	g.mu.Lock()
	members := len(g.members)
	g.mu.Unlock()
	for _, s := range slots {
		if s < 0 || s >= members {
			return nil, fmt.Errorf("%w: group %d: slot %d out of range", ErrInvalidBatch, gid, s)
		}
	}
	return g, nil
}

// applyBatch is AppendBatch's apply phase; it stops at the first error.
func (h *Head) applyBatch(b *Batch) error {
	for i, smp := range b.samples {
		if err := h.appendSeries(b.series[i], smp.t, smp.v); err != nil {
			return err
		}
	}
	for i, r := range b.rounds {
		if err := h.appendRound(b.groups[i], r.t, r.slots, r.vals); err != nil {
			return err
		}
	}
	return nil
}
