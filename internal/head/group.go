package head

import (
	"fmt"
	"sync"

	"timeunion/internal/chunkenc"
	"timeunion/internal/encoding"
	"timeunion/internal/index"
	"timeunion/internal/labels"
	"timeunion/internal/tuple"
	"timeunion/internal/xmmap"
)

// groupMember is one timeseries inside a group: only its unique tags are
// stored (the shared group tags live once on the group, §3.1).
type groupMember struct {
	unique labels.Labels
}

// groupBuilder is the open chunk of a group: one shared timestamp column
// plus one value column per member that has produced a sample in this
// chunk. Value columns append into mmap slots like series chunks.
type groupBuilder struct {
	times    *chunkenc.GroupTimeChunk
	timeRef  xmmap.Ref
	vals     map[uint32]*chunkenc.GroupValueChunk
	valRefs  map[uint32]xmmap.Ref
	numTimes int
}

// MemGroup is the memory object of a timeseries group.
type MemGroup struct {
	GID       uint64
	GroupTags labels.Labels

	// mu guards everything below; rounds appended to different groups
	// only contend on their stripe's read lock.
	mu          sync.Mutex
	members     []groupMember
	memberByKey map[string]int

	seq   uint64
	lastT int64
	haveT bool

	cur *groupBuilder
	// scratch is the reusable per-round slot→value staging map.
	scratch map[uint32]float64
	// walSlots is the reusable per-round slot list handed to the WAL,
	// which copies it before returning.
	walSlots []uint32
}

// AppendGroup inserts one shared-timestamp round of samples into a group
// identified by its shared tags (the slow-path group API of §3.4). Each
// uniqueTags[i] identifies one member inside the group; members not yet in
// the group's timeseries array are appended to it. It returns the group ID
// and the member slot indexes for fast-path use.
func (h *Head) AppendGroup(groupTags labels.Labels, uniqueTags []labels.Labels, t int64, vals []float64) (uint64, []int, error) {
	if len(uniqueTags) != len(vals) {
		return 0, nil, fmt.Errorf("head: group append: %d tag sets vs %d values", len(uniqueTags), len(vals))
	}
	g, err := h.getOrCreateGroup(groupTags)
	if err != nil {
		return 0, nil, err
	}
	g.mu.Lock()
	slots := make([]int, len(uniqueTags))
	for i, ut := range uniqueTags {
		if slots[i], err = h.getOrCreateMemberLocked(g, ut); err != nil {
			break
		}
	}
	g.mu.Unlock()
	// Members only grow, so the slots stay valid once g.mu is released.
	if err == nil {
		err = h.commit(h.appendRound(g, t, slots, vals))
	}
	if err != nil {
		return 0, nil, err
	}
	return g.GID, slots, nil
}

// AppendGroupFast inserts one round by group ID and member slot indexes
// (the fast-path group API of §3.4): a batch of one, validated and logged
// as AppendBatch does.
func (h *Head) AppendGroupFast(gid uint64, slots []int, t int64, vals []float64) error {
	g, err := h.resolveGroup(gid, slots, vals)
	if err != nil {
		return err
	}
	return h.commit(h.appendRound(g, t, slots, vals))
}

// lookupGroup resolves a group id through its stripe.
func (h *Head) lookupGroup(gid uint64) (*MemGroup, bool) {
	st := h.stripeFor(gid)
	st.mu.RLock()
	g, ok := st.groups[gid]
	st.mu.RUnlock()
	return g, ok
}

// getOrCreateGroup finds or registers a group by shared tags; the catalog
// lock serializes creation (the slow path) only.
func (h *Head) getOrCreateGroup(groupTags labels.Labels) (*MemGroup, error) {
	key := groupTags.Key()
	h.cat.mu.RLock()
	gid, ok := h.cat.groupByKey[key]
	h.cat.mu.RUnlock()
	if ok {
		if g, ok := h.lookupGroup(gid); ok {
			return g, nil
		}
	}
	h.cat.mu.Lock()
	defer h.cat.mu.Unlock()
	if gid, ok := h.cat.groupByKey[key]; ok {
		g, _ := h.lookupGroup(gid)
		return g, nil
	}
	h.cat.nextGroup++
	gid = index.GroupIDFlag | h.cat.nextGroup
	if h.opts.WAL != nil {
		if err := h.opts.WAL.LogGroup(gid, groupTags); err != nil {
			return nil, err
		}
	}
	return h.installGroupLocked(gid, groupTags)
}

// getOrCreateMemberLocked finds or appends a member slot. The caller holds
// g.mu; the index and WAL are internally synchronized.
func (h *Head) getOrCreateMemberLocked(g *MemGroup, unique labels.Labels) (int, error) {
	if slot, ok := g.memberByKey[unique.Key()]; ok {
		return slot, nil
	}
	if h.opts.WAL != nil {
		if err := h.opts.WAL.LogGroupMember(g.GID, uint32(len(g.members)), unique); err != nil {
			return 0, err
		}
	}
	return h.installMemberLocked(g, unique)
}

// appendRound is the group write path: under g.mu it stages one round in
// the pending WAL record, which the caller commits, and ingests it.
func (h *Head) appendRound(g *MemGroup, t int64, slots []int, vals []float64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	if w := h.opts.WAL; w != nil {
		g.walSlots = g.walSlots[:0]
		for _, s := range slots {
			g.walSlots = append(g.walSlots, uint32(s))
		}
		if err := w.StageGroupSample(g.GID, g.seq, t, g.walSlots, vals); err != nil {
			return err
		}
	}
	return h.ingestGroupLocked(g, t, slots, vals)
}

// ingestGroupLocked applies one round without logging (also used by
// recovery). The four insertion cases of §3.1 are handled here: normal
// append, new member (NULL backfill), missing member (NULL fill), and
// out-of-order (rewrite or early flush). The caller holds g.mu.
func (h *Head) ingestGroupLocked(g *MemGroup, t int64, slots []int, vals []float64) error {
	if g.cur != nil && g.cur.numTimes > 0 && t <= g.cur.times.MaxTime() {
		if t >= g.cur.times.MinTime() {
			return h.rewriteGroupChunkLocked(g, t, slots, vals)
		}
		// Older than the open chunk: early-flush a single-row tuple.
		row := &chunkenc.GroupData{Times: []int64{t}}
		for i, s := range slots {
			row.Columns = append(row.Columns, chunkenc.GroupColumn{
				Slot:   uint32(s),
				Values: []float64{vals[i]},
				Nulls:  []bool{false},
			})
		}
		enc, err := row.Encode()
		if err != nil {
			return err
		}
		return h.opts.Sink(encoding.MakeKey(g.GID, t), tuple.Encode(g.seq, tuple.KindGroup, t, t, enc))
	}

	if g.cur == nil {
		g.cur = h.newGroupBuilder()
	}
	b := g.cur
	if err := b.times.Append(t); err != nil {
		return err
	}
	b.numTimes++
	if g.scratch == nil {
		g.scratch = make(map[uint32]float64, len(slots))
	}
	inRound := g.scratch
	clear(inRound)
	for i, s := range slots {
		inRound[uint32(s)] = vals[i]
	}
	// Existing columns: value if sampled this round, NULL otherwise
	// (insertion case 3, the "missing timeseries" fill).
	for slot, vc := range b.vals {
		if v, ok := inRound[slot]; ok {
			vc.Append(v)
			delete(inRound, slot)
		} else {
			vc.AppendNull()
		}
	}
	// New columns this chunk: backfill NULLs for earlier rounds
	// (insertion case 2, the "new timeseries" backfill).
	for slot, v := range inRound {
		ref, buf := allocChunkBuf(h.groupValSlots)
		vc := chunkenc.NewGroupValueChunkInto(buf)
		for i := 0; i < b.numTimes-1; i++ {
			vc.AppendNull()
		}
		vc.Append(v)
		b.vals[slot] = vc
		b.valRefs[slot] = ref
	}
	if !g.haveT || t > g.lastT {
		g.lastT = t
		g.haveT = true
	}
	if b.numTimes >= h.opts.ChunkSamples {
		return h.flushGroupChunkLocked(g)
	}
	return nil
}

func (h *Head) newGroupBuilder() *groupBuilder {
	ref, buf := allocChunkBuf(h.groupTimeSlots)
	return &groupBuilder{
		times:   chunkenc.NewGroupTimeChunkInto(buf),
		timeRef: ref,
		vals:    make(map[uint32]*chunkenc.GroupValueChunk),
		valRefs: make(map[uint32]xmmap.Ref),
	}
}

// rewriteGroupChunkLocked handles an out-of-order round whose timestamp
// falls inside the open chunk: decode, merge, re-encode (§3.1 case 4).
// The caller holds g.mu.
func (h *Head) rewriteGroupChunkLocked(g *MemGroup, t int64, slots []int, vals []float64) error {
	old, err := h.builderData(g.cur)
	if err != nil {
		return err
	}
	row := &chunkenc.GroupData{Times: []int64{t}}
	for i, s := range slots {
		row.Columns = append(row.Columns, chunkenc.GroupColumn{
			Slot:   uint32(s),
			Values: []float64{vals[i]},
			Nulls:  []bool{false},
		})
	}
	merged := chunkenc.MergeGroupData(old, row)
	h.resetGroupChunkLocked(g)
	g.cur = h.newGroupBuilder()
	b := g.cur
	for _, ts := range merged.Times {
		if err := b.times.Append(ts); err != nil {
			return err
		}
	}
	b.numTimes = len(merged.Times)
	for _, col := range merged.Columns {
		ref, buf := allocChunkBuf(h.groupValSlots)
		vc := chunkenc.NewGroupValueChunkInto(buf)
		for i := range merged.Times {
			if col.Nulls[i] {
				vc.AppendNull()
			} else {
				vc.Append(col.Values[i])
			}
		}
		b.vals[col.Slot] = vc
		b.valRefs[col.Slot] = ref
	}
	if !g.haveT || t > g.lastT {
		g.lastT = t
		g.haveT = true
	}
	if b.numTimes >= h.opts.ChunkSamples {
		return h.flushGroupChunkLocked(g)
	}
	return nil
}

// builderData decodes the open chunk into columnar form.
func (h *Head) builderData(b *groupBuilder) (*chunkenc.GroupData, error) {
	g := &chunkenc.GroupData{}
	it := b.times.Iterator()
	for it.Next() {
		g.Times = append(g.Times, it.At())
	}
	if it.Err() != nil {
		return nil, it.Err()
	}
	for slot, vc := range b.vals {
		col := chunkenc.GroupColumn{Slot: slot}
		vit := vc.Iterator()
		for vit.Next() {
			v, null := vit.At()
			col.Values = append(col.Values, v)
			col.Nulls = append(col.Nulls, null)
		}
		if vit.Err() != nil {
			return nil, vit.Err()
		}
		for len(col.Values) < len(g.Times) {
			col.Values = append(col.Values, 0)
			col.Nulls = append(col.Nulls, true)
		}
		g.Columns = append(g.Columns, col)
	}
	return g, nil
}

// flushGroupChunkLocked serializes the open group chunk (Figure 7: "we
// concatenate and serialize timestamp chunk and metric values chunks into a
// byte array ... and insert it into the time-partitioned LSM-Tree"). The
// caller holds g.mu.
func (h *Head) flushGroupChunkLocked(g *MemGroup) error {
	b := g.cur
	gt := &chunkenc.GroupTuple{Time: append([]byte(nil), b.times.Bytes()...)}
	slots := make([]uint32, 0, len(b.vals))
	for slot := range b.vals {
		slots = append(slots, slot)
	}
	sortUint32(slots)
	for _, slot := range slots {
		gt.Slots = append(gt.Slots, slot)
		gt.Values = append(gt.Values, append([]byte(nil), b.vals[slot].Bytes()...))
	}
	key := encoding.MakeKey(g.GID, b.times.MinTime())
	if err := h.opts.Sink(key, tuple.Encode(g.seq, tuple.KindGroup, b.times.MinTime(), b.times.MaxTime(), gt.Encode(nil))); err != nil {
		return err
	}
	h.mGroupFlushed.Inc()
	h.resetGroupChunkLocked(g)
	return nil
}

func (h *Head) resetGroupChunkLocked(g *MemGroup) {
	if g.cur == nil {
		return
	}
	freeChunkBuf(h.groupTimeSlots, g.cur.timeRef)
	for _, ref := range g.cur.valRefs {
		freeChunkBuf(h.groupValSlots, ref)
	}
	g.cur = nil
}

// removeGroupLocked unregisters a purged group. The caller holds the
// catalog lock, st's lock, and g.mu.
func (h *Head) removeGroupLocked(st *stripe, gid uint64, g *MemGroup) {
	h.idx.Remove(gid, g.GroupTags)
	for _, m := range g.members {
		h.idx.Remove(gid, m.unique)
	}
	h.resetGroupChunkLocked(g)
	delete(st.groups, gid)
	delete(h.cat.groupByKey, g.GroupTags.Key())
}

// GroupInfo returns a group's shared tags and its members' unique tags in
// slot order.
func (h *Head) GroupInfo(gid uint64) (labels.Labels, []labels.Labels, bool) {
	g, ok := h.lookupGroup(gid)
	if !ok {
		return nil, nil, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	members := make([]labels.Labels, len(g.members))
	for i, m := range g.members {
		members[i] = m.unique
	}
	return g.GroupTags, members, true
}

// ResolveGroup returns the group ID for a set of shared tags.
func (h *Head) ResolveGroup(groupTags labels.Labels) (uint64, bool) {
	h.cat.mu.RLock()
	gid, ok := h.cat.groupByKey[groupTags.Key()]
	h.cat.mu.RUnlock()
	return gid, ok
}

// HeadGroupSamples returns the open-chunk samples of every member of the
// group overlapping [mint, maxt], keyed by member slot.
func (h *Head) HeadGroupSamples(gid uint64, mint, maxt int64) (map[uint32][]chunkenc.Sample, error) {
	g, ok := h.lookupGroup(gid)
	if !ok {
		return nil, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cur == nil || g.cur.numTimes == 0 {
		return nil, nil
	}
	data, err := h.builderData(g.cur)
	if err != nil {
		return nil, err
	}
	out := map[uint32][]chunkenc.Sample{}
	for _, col := range data.Columns {
		for i, ts := range data.Times {
			if ts < mint || ts > maxt || col.Nulls[i] {
				continue
			}
			out[col.Slot] = append(out[col.Slot], chunkenc.Sample{T: ts, V: col.Values[i]})
		}
	}
	return out, nil
}

// HeadGroupIterators streams the open group chunk's members in
// [mint, maxt]: one iterator per slot over the shared time column and the
// member's value column. Each member is batch-decoded under the group lock
// into a pooled sample buffer owned by its iterator — the column bytes
// (which may live in memory-mapped slots) never escape the lock. A missing
// group or empty chunk yields nil. Release the iterators
// (chunkenc.ReleaseIterator) to recycle the buffers.
func (h *Head) HeadGroupIterators(gid uint64, mint, maxt int64) map[uint32]chunkenc.SampleIterator {
	g, ok := h.lookupGroup(gid)
	if !ok {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.cur
	if b == nil || b.numTimes == 0 {
		return nil
	}
	if b.times.MaxTime() < mint || b.times.MinTime() > maxt {
		return nil
	}
	timeCol := b.times.Bytes()
	out := make(map[uint32]chunkenc.SampleIterator, len(b.vals))
	for slot, vc := range b.vals {
		buf := chunkenc.GetSampleBuffer()
		var err error
		buf.T, buf.V, err = chunkenc.AppendGroupSlotSamples(buf.T, buf.V, timeCol, vc.Bytes())
		if err != nil {
			chunkenc.PutSampleBuffer(buf)
			out[slot] = chunkenc.ErrIterator(err)
			continue
		}
		out[slot] = chunkenc.GetBufferIterator(buf, mint, maxt)
	}
	return out
}

func sortUint32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
