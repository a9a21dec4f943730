package lsm

import (
	"fmt"
	"sort"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/encoding"
	"timeunion/internal/sstable"
	"timeunion/internal/tuple"
)

// mergedEntry is one key's set of values gathered from input tables.
type mergedEntry struct {
	key encoding.Key
	val []byte
	seq uint64 // creation seq of the source table, for newest-wins ordering
}

// collectEntries reads every entry of the given tables into memory, sorted
// by (key, source table seq). Partitions are bounded (a few MB at the
// paper's partition sizes), so an in-memory sort-merge is the simple and
// correct choice. Each table costs one whole-object Get and never touches
// the block cache; entry values alias the decoded blocks, which nothing
// else holds.
func collectEntries(handles []*tableHandle) ([]mergedEntry, error) {
	var entries []mergedEntry
	for _, h := range handles {
		it := h.tbl.IterWhole()
		for it.Next() {
			key, err := encoding.ParseKey(it.Key())
			if err != nil {
				it.Release()
				return nil, fmt.Errorf("lsm: compact: %w", err)
			}
			entries = append(entries, mergedEntry{key: key, val: it.Value(), seq: h.seq})
		}
		err := it.Err()
		it.Release()
		if err != nil {
			return nil, fmt.Errorf("lsm: compact read %s: %w", h.storeKey, err)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		for b := 0; b < encoding.KeyLen; b++ {
			if entries[i].key[b] != entries[j].key[b] {
				return entries[i].key[b] < entries[j].key[b]
			}
		}
		return entries[i].seq < entries[j].seq
	})
	return entries, nil
}

// foldEntries merges duplicate keys and then merges any time-overlapping
// chunks of the same series, in embedded-sequence order so per-sample
// newest-wins semantics hold (paper §3.3: "keep the data sample from the
// newest SSTable"). Merging every overlapping group inside a compaction is
// what keeps chunk-level sequence ranks consistent afterwards: the merged
// chunk's sequence dominates exactly the chunks it absorbed.
func foldEntries(entries []mergedEntry) ([]tuple.KV, error) {
	// Duplicate keys are NOT pre-merged pairwise: a same-key merge would
	// stamp old samples with the newer chunk's sequence before the overlap
	// sweep orders the whole group, losing per-sample recency against a
	// chunk with an intermediate sequence. The sweep handles equal keys
	// (equal start time implies overlap) in one pass.
	kvs := make([]tuple.KV, len(entries))
	for i, e := range entries {
		kvs[i] = tuple.KV{Key: e.key, Value: e.val}
	}
	return mergeOverlappingSameID(kvs)
}

// mergeOverlappingSameID sweeps key-sorted kvs and merges runs of chunks of
// one series whose sample time ranges overlap, oldest sequence first. The
// output stays sorted; merged chunks are re-keyed at their first sample.
func mergeOverlappingSameID(kvs []tuple.KV) ([]tuple.KV, error) {
	out := kvs[:0]
	for i := 0; i < len(kvs); {
		id := kvs[i].Key.ID()
		_, hi, err := tuple.TimeRange(kvs[i].Value)
		if err != nil {
			return nil, fmt.Errorf("lsm: compact overlap scan: %w", err)
		}
		j := i + 1
		for j < len(kvs) && kvs[j].Key.ID() == id && kvs[j].Key.StartT() <= hi {
			_, jhi, err := tuple.TimeRange(kvs[j].Value)
			if err != nil {
				return nil, err
			}
			if jhi > hi {
				hi = jhi
			}
			j++
		}
		if j == i+1 {
			out = append(out, kvs[i])
			i = j
			continue
		}
		group := append([]tuple.KV(nil), kvs[i:j]...)
		sort.Slice(group, func(a, b int) bool {
			return tuple.SeqOf(group[a].Value) < tuple.SeqOf(group[b].Value)
		})
		acc := group[0].Value
		for _, kv := range group[1:] {
			if acc, err = mergeBySeq(acc, kv.Value); err != nil {
				return nil, err
			}
		}
		lo, _, err := tuple.TimeRange(acc)
		if err != nil {
			return nil, err
		}
		out = append(out, tuple.KV{Key: encoding.MakeKey(id, lo), Value: acc})
		i = j
	}
	return out, nil
}

// allTables returns every table in the partition including patches, in
// creation order within the base/patch structure.
func allTables(p *partition) []*tableHandle {
	out := append([]*tableHandle(nil), p.tables...)
	for _, ps := range p.patches {
		out = append(out, ps...)
	}
	return out
}

// runL0L1 executes an L0→L1 job: merge the job's input partitions,
// gathering each series' chunks contiguously, and write the result to
// level 1 aligned to the shortest input partition length (paper §3.3 and
// Figure 12 left). The fast-manifest swap after the in-memory publish is
// the commit point; input objects are deleted only after it.
func (l *LSM) runL0L1(job *compactionJob) error {
	entries, err := collectEntries(job.handles)
	if err != nil {
		return err
	}
	kvs, err := foldEntries(entries)
	if err != nil {
		return err
	}
	newParts, err := l.buildPartitions(l.opts.Fast, 1, kvs, job.outLen)
	if err != nil {
		return err
	}
	job.res.partsOut = len(newParts)
	for _, p := range newParts {
		job.res.tablesOut += len(p.tables)
		for _, h := range p.tables {
			job.res.bytesOut += h.tbl.Size()
		}
	}

	l.mu.Lock()
	dead := map[*partition]bool{}
	for _, p := range job.inputs {
		dead[p] = true
	}
	l.l0 = removePartitions(l.l0, dead)
	l.l1 = removePartitions(l.l1, dead)
	for _, np := range newParts {
		l.l1 = insertPartition(l.l1, np)
	}
	l.mu.Unlock()

	if err := l.commitManifests(true, false, nil); err != nil {
		return err
	}
	for _, h := range job.handles {
		h.markObsolete()
	}
	l.stats.c01.Add(1)
	return nil
}

// buildPartitions splits kvs on the outLen grid and writes one partition
// per non-empty window at the given level/store. On error every table
// already written — in earlier windows and, via writeTables' own cleanup,
// in the failing one — is deleted, so a failed build leaves no orphans.
func (l *LSM) buildPartitions(store cloud.Store, level int, kvs []tuple.KV, outLen int64) (parts []*partition, err error) {
	defer func() {
		if err != nil {
			for _, p := range parts {
				for _, h := range p.tables {
					h.markObsolete()
				}
			}
			parts = nil
		}
	}()
	byWindow, order, err := bucketByWindow(kvs, outLen)
	if err != nil {
		return nil, err
	}
	for _, ws := range order {
		p := &partition{minT: ws, maxT: ws + outLen}
		handles, err := l.writeTables(store, level, p, byWindow[ws])
		if err != nil {
			return parts, err
		}
		p.tables = handles
		p.patches = make([][]*tableHandle, len(handles))
		parts = append(parts, p)
	}
	return parts, nil
}

// bucketByWindow splits each kv on the window grid and groups the pieces.
// Every returned bucket is normalized: sorted by key with duplicates
// merged. (Buckets are not sorted merely by construction: a chunk that
// overlaps into a window from an earlier one is keyed by its first sample
// *inside* the window, which can come after a later chunk's start.)
func bucketByWindow(kvs []tuple.KV, outLen int64) (map[int64][]tuple.KV, []int64, error) {
	byWindow := map[int64][]tuple.KV{}
	var order []int64
	for _, kv := range kvs {
		pieces, err := tuple.Split(kv.Key, kv.Value, outLen)
		if err != nil {
			return nil, nil, fmt.Errorf("lsm: compact split: %w", err)
		}
		for _, piece := range pieces {
			ws := tuple.WindowStart(piece.Key.StartT(), outLen)
			if _, ok := byWindow[ws]; !ok {
				order = append(order, ws)
			}
			byWindow[ws] = append(byWindow[ws], piece)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for ws, bucket := range byWindow {
		normalized, err := normalizeKVs(bucket)
		if err != nil {
			return nil, nil, err
		}
		byWindow[ws] = normalized
	}
	return byWindow, order, nil
}

// normalizeKVs sorts kvs by key and merges duplicates (larger embedded
// sequence treated as newer).
func normalizeKVs(kvs []tuple.KV) ([]tuple.KV, error) {
	sortKVs(kvs)
	out := kvs[:0]
	for _, kv := range kvs {
		if n := len(out); n > 0 && out[n-1].Key == kv.Key {
			merged, err := mergeBySeq(out[n-1].Value, kv.Value)
			if err != nil {
				return nil, err
			}
			out[n-1].Value = merged
			continue
		}
		out = append(out, kv)
	}
	return out, nil
}

func releaseAll(hs []*tableHandle) {
	for _, h := range hs {
		h.release()
	}
}

// runL1L2 executes an L1→L2 job: ship one level-2-sized window of L1
// partitions to the slow store (paper §3.3 "Compaction on slow cloud
// storage"). Fully ordered data creates a fresh L2 partition with one
// write and zero slow-tier reads; out-of-order (stale) windows that
// overlap existing L2 partitions become patches routed by the ID ranges
// of the existing SSTables. The slow-manifest swap — carrying tombstones
// for the consumed fast-tier inputs — is the cross-tier commit point.
func (l *LSM) runL1L2(job *compactionJob) error {
	inputs, overlapped, outLen := job.inputs, job.overlapped, job.outLen

	entries, err := collectEntries(job.handles)
	if err != nil {
		return err
	}
	kvs, err := foldEntries(entries)
	if err != nil {
		return err
	}

	// Any output table written before a failure below is deleted on the
	// error path, so an aborted upload strands nothing.
	var created []*tableHandle
	fail := func(err error) error {
		for _, h := range created {
			h.markObsolete()
		}
		return err
	}

	// Split on the finest involved grid and route each window: covered →
	// patch batch of the covering L2 partition; uncovered → new partition
	// aligned to outLen (Figure 12 right).
	byWindow, order, err := bucketByWindow(kvs, outLen)
	if err != nil {
		return err
	}
	patchBatches := map[*partition][]tuple.KV{}
	newWindowKVs := map[int64][]tuple.KV{}
	var newOrder []int64
	for _, ws := range order {
		var cover *partition
		for _, p := range overlapped {
			if p.overlaps(ws, ws+outLen) {
				cover = p
				break
			}
		}
		if cover != nil {
			patchBatches[cover] = append(patchBatches[cover], byWindow[ws]...)
		} else {
			newWindowKVs[ws] = byWindow[ws]
			newOrder = append(newOrder, ws)
		}
	}

	// New L2 partitions for uncovered windows.
	var newParts []*partition
	for _, ws := range newOrder {
		p := &partition{minT: ws, maxT: ws + outLen}
		hs, err := l.writeTables(l.opts.Slow, 2, p, newWindowKVs[ws])
		if err != nil {
			return fail(err)
		}
		p.tables = hs
		p.patches = make([][]*tableHandle, len(hs))
		newParts = append(newParts, p)
		created = append(created, hs...)
	}

	// Patches: route by the ID ranges of the target partition's SSTables.
	type patchSet struct {
		part    *partition
		byTable map[int][]tuple.KV
	}
	var patchSets []patchSet
	for _, target := range overlapped {
		batch := patchBatches[target]
		if len(batch) == 0 {
			continue
		}
		sortKVs(batch)
		ps := patchSet{part: target, byTable: map[int][]tuple.KV{}}
		l.mu.RLock()
		for _, kv := range batch {
			idx := routeByIDRange(target.tables, kv.Key.ID())
			ps.byTable[idx] = append(ps.byTable[idx], kv)
		}
		l.mu.RUnlock()
		patchSets = append(patchSets, ps)
	}
	type writtenPatch struct {
		part *partition
		idx  int
		h    *tableHandle
	}
	var written []writtenPatch
	for _, ps := range patchSets {
		idxs := make([]int, 0, len(ps.byTable))
		for idx := range ps.byTable {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			l.mu.RLock()
			baseSeq := ps.part.tables[idx].seq
			l.mu.RUnlock()
			h, err := l.writePatch(ps.part, baseSeq, ps.byTable[idx])
			if err != nil {
				return fail(err)
			}
			written = append(written, writtenPatch{part: ps.part, idx: idx, h: h})
			created = append(created, h)
		}
	}

	job.res.partsOut = len(newParts)
	job.res.patchesOut = len(written)
	job.res.tablesOut = len(created)
	for _, h := range created {
		job.res.bytesOut += h.tbl.Size()
	}

	// Publish: swap inputs out of L1, add new L2 partitions and patches.
	l.mu.Lock()
	dead := map[*partition]bool{}
	for _, p := range inputs {
		dead[p] = true
	}
	l.l1 = removePartitions(l.l1, dead)
	for _, np := range newParts {
		l.l2 = insertPartition(l.l2, np)
	}
	for _, wp := range written {
		wp.part.patches[wp.idx] = append(wp.part.patches[wp.idx], wp.h)
		l.stats.patches.Add(1)
	}
	// Collect patch-merge candidates.
	type mergeJob struct {
		part *partition
		idx  int
	}
	var jobs []mergeJob
	for _, wp := range written {
		if len(wp.part.patches[wp.idx]) > l.opts.PatchThreshold {
			jobs = append(jobs, mergeJob{wp.part, wp.idx})
		}
	}
	l.mu.Unlock()

	// Cross-tier commit: the slow manifest (new L2 tables + patches, plus
	// tombstones naming the consumed fast inputs) is the atomic point; the
	// fast manifest follows. A crash between the two is healed at recovery
	// by subtracting the tombstones from the fast table set.
	tombs := make([]string, 0, len(job.handles))
	for _, h := range job.handles {
		tombs = append(tombs, h.storeKey)
	}
	if err := l.commitManifests(true, true, tombs); err != nil {
		return err
	}
	for _, h := range job.handles {
		h.markObsolete()
	}
	l.stats.c12.Add(1)

	// Split-merge overloaded tables (Figure 11). Deduplicate jobs and run
	// highest index first so earlier indexes stay valid.
	seen := map[*partition]map[int]bool{}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].idx > jobs[j].idx })
	for _, j := range jobs {
		if seen[j.part] == nil {
			seen[j.part] = map[int]bool{}
		}
		if seen[j.part][j.idx] {
			continue
		}
		seen[j.part][j.idx] = true
		if err := l.mergePatches(j.part, j.idx); err != nil {
			return err
		}
	}
	return nil
}

// writePatch writes one patch SSTable appended to base table baseSeq of
// partition p on the slow store.
func (l *LSM) writePatch(p *partition, baseSeq uint64, kvs []tuple.KV) (*tableHandle, error) {
	w := l.newTableWriter(2)
	for _, kv := range kvs {
		if err := w.Add(kv.Key[:], kv.Value); err != nil {
			return nil, fmt.Errorf("lsm: build patch: %w", err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		return nil, err
	}
	seq := l.nextFileSeq()
	name := patchName(p, baseSeq, seq)
	l.book.declare(name)
	if err := l.opts.Slow.Put(name, data); err != nil {
		l.book.forget(name)
		return nil, fmt.Errorf("lsm: write patch %s: %w", name, err)
	}
	tbl, err := sstable.OpenTableFromBytes(l.opts.Slow, name, l.opts.Cache, data)
	if err != nil {
		return nil, err
	}
	return newTableHandle(tbl, l.opts.Slow, name, seq, l.book), nil
}

// mergePatches merges base table idx of partition p with all its patches
// and replaces it with new SSTables having disjoint ID ranges (Figure 11).
func (l *LSM) mergePatches(p *partition, idx int) (err error) {
	start := time.Now()
	var tablesIn, tablesOut int
	var bytesIn, bytesOut int64
	defer func() {
		if j := l.opts.Journal; j != nil && tablesIn > 0 {
			j.Emit("lsm.patch_merge", start, err, map[string]any{
				"tables_in":  tablesIn,
				"bytes_in":   bytesIn,
				"tables_out": tablesOut,
				"bytes_out":  bytesOut,
				"min_t":      p.minT,
				"max_t":      p.maxT,
			})
		}
	}()
	l.mu.Lock()
	if idx >= len(p.tables) {
		l.mu.Unlock()
		return nil
	}
	old := append([]*tableHandle{p.tables[idx]}, p.patches[idx]...)
	for _, h := range old {
		h.retain()
	}
	tablesIn = len(old)
	for _, h := range old {
		bytesIn += h.tbl.Size()
	}
	l.mu.Unlock()

	entries, err := collectEntries(old)
	if err != nil {
		releaseAll(old)
		return err
	}
	kvs, err := foldEntries(entries)
	releaseAll(old)
	if err != nil {
		return err
	}
	newHandles, err := l.writeTables(l.opts.Slow, 2, p, kvs)
	if err != nil {
		return err
	}
	tablesOut = len(newHandles)
	for _, h := range newHandles {
		bytesOut += h.tbl.Size()
	}

	l.mu.Lock()
	tables := make([]*tableHandle, 0, len(p.tables)-1+len(newHandles))
	patches := make([][]*tableHandle, 0, cap(tables))
	tables = append(tables, p.tables[:idx]...)
	patches = append(patches, p.patches[:idx]...)
	tables = append(tables, newHandles...)
	patches = append(patches, make([][]*tableHandle, len(newHandles))...)
	tables = append(tables, p.tables[idx+1:]...)
	patches = append(patches, p.patches[idx+1:]...)
	p.tables = tables
	p.patches = patches
	l.mu.Unlock()

	// Publish the split-merge durably before deleting what it replaced.
	if err := l.commitManifests(false, true, nil); err != nil {
		return err
	}
	for _, h := range old {
		h.markObsolete()
	}
	l.stats.patchMerges.Add(1)
	return nil
}

// routeByIDRange picks the base table whose ID range should receive a patch
// entry for id: the last table whose first ID is <= id, else the first.
func routeByIDRange(tables []*tableHandle, id uint64) int {
	idx := 0
	for i, h := range tables {
		if h.firstID <= id {
			idx = i
		}
	}
	return idx
}

func sortKVs(kvs []tuple.KV) {
	sort.Slice(kvs, func(i, j int) bool {
		for b := 0; b < encoding.KeyLen; b++ {
			if kvs[i].Key[b] != kvs[j].Key[b] {
				return kvs[i].Key[b] < kvs[j].Key[b]
			}
		}
		return false
	})
}
