package chunkenc

// GroupSlotIterator is the streaming decoder that AppendGroupSlotSamples
// replaced on every read path. It stays as the oracle of
// FuzzGroupSlotBatchIdentity and TestGroupSlotIterator.

// GroupSlotIterator streams one member's non-NULL samples out of a group
// tuple by walking the shared timestamp column and the member's value
// column in lockstep, skipping NULL slots. A value column shorter than the
// time column is treated as NULL-padded (a member that joined mid-tuple).
type GroupSlotIterator struct {
	tit  GroupTimeIterator // by value: one allocation for the whole stack
	vit  GroupValueIterator
	t    int64
	v    float64
	done bool // a Next/Seek returned false; the iterator stays exhausted
	err  error
}

// NewGroupSlotIterator returns an iterator over one member's samples given
// the tuple's encoded time column and the member's encoded value column.
func NewGroupSlotIterator(timePayload, valPayload []byte) *GroupSlotIterator {
	it := &GroupSlotIterator{}
	it.tit.reset(timePayload)
	it.vit.reset(valPayload)
	return it
}

// Next implements SampleIterator.
func (it *GroupSlotIterator) Next() bool {
	if it.err != nil || it.done {
		return false
	}
	for {
		if !it.tit.Next() {
			it.err = it.tit.Err()
			it.done = true
			return false
		}
		if !it.vit.Next() {
			if err := it.vit.Err(); err != nil {
				it.err = err
				it.done = true
				return false
			}
			continue // short column: remaining slots are NULL
		}
		v, null := it.vit.At()
		if null {
			continue
		}
		it.t, it.v = it.tit.At(), v
		return true
	}
}

// Seek implements SampleIterator by forward decode (the columns are
// delta/XOR streams without random access).
func (it *GroupSlotIterator) Seek(t int64) bool {
	if it.err != nil || it.done {
		return false
	}
	for it.tit.numRead == 0 || it.t < t {
		if !it.Next() {
			return false
		}
	}
	return true
}

// At implements SampleIterator.
func (it *GroupSlotIterator) At() (int64, float64) { return it.t, it.v }

// Err implements SampleIterator.
func (it *GroupSlotIterator) Err() error { return it.err }
