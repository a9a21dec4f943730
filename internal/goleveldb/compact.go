package goleveldb

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"timeunion/internal/memtable"
	"timeunion/internal/sstable"
)

// backgroundLoop is the single flush/compaction worker.
func (db *DB) backgroundLoop() {
	db.mu.Lock()
	for {
		for len(db.imm) == 0 && !db.closed {
			db.flushCond.Wait()
		}
		if db.closed {
			db.mu.Unlock()
			return
		}
		m := db.imm[0]
		db.working = true
		db.mu.Unlock()

		err := db.flushMemtable(m)
		if err == nil {
			err = db.maybeCompact()
		}

		db.mu.Lock()
		db.imm[0] = nil // the backing array must not pin the flushed memtable
		db.imm = db.imm[1:]
		db.working = false
		if err != nil && db.bgErr == nil {
			db.bgErr = err
		}
		db.idleCond.Broadcast()
	}
}

func (db *DB) nextSeq() uint64 { return db.fileSeq.Add(1) }

func (db *DB) tableName(level int, seq uint64) string {
	return fmt.Sprintf("ldb/l%d/%016x.sst", level, seq)
}

// flushMemtable writes the immutable memtable as one L0 table (L0 tables
// may overlap, exactly as in LevelDB).
func (db *DB) flushMemtable(m *memtable.MemTable) error {
	w := sstable.NewWriter(db.opts.BlockSize)
	it := m.Iter(nil, nil)
	for it.Next() {
		if err := w.Add(it.Key(), it.Value()); err != nil {
			return fmt.Errorf("goleveldb: flush: %w", err)
		}
	}
	if w.NumEntries() == 0 {
		return nil
	}
	t, err := db.writeTable(0, w)
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.levels[0] = append(db.levels[0], t)
	db.mu.Unlock()
	db.stats.flushes.Add(1)
	return nil
}

func (db *DB) writeTable(level int, w *sstable.Writer) (*table, error) {
	data, err := w.Finish()
	if err != nil {
		return nil, err
	}
	store := db.storeFor(level)
	seq := db.nextSeq()
	name := db.tableName(level, seq)
	if err := store.Put(name, data); err != nil {
		return nil, fmt.Errorf("goleveldb: write table: %w", err)
	}
	tbl, err := sstable.OpenTableFromBytes(store, name, db.cacheFor(store), data)
	if err != nil {
		return nil, err
	}
	t := &table{tbl: tbl, store: store, storeKey: name, seq: seq}
	t.refs.Store(1)
	return t, nil
}

// levelTarget is level n's size budget.
func (db *DB) levelTarget(n int) int64 {
	target := db.opts.BaseLevelBytes
	for i := 1; i < n; i++ {
		target *= int64(db.opts.Multiplier)
	}
	return target
}

// maybeCompact runs level compactions until all levels are within budget.
func (db *DB) maybeCompact() error {
	for {
		db.mu.RLock()
		level := -1
		if len(db.levels[0]) >= db.opts.L0CompactionTrigger {
			level = 0
		} else {
			for n := 1; n < db.opts.MaxLevels-1; n++ {
				var size int64
				for _, t := range db.levels[n] {
					size += t.tbl.Size()
				}
				if size > db.levelTarget(n) {
					level = n
					break
				}
			}
		}
		db.mu.RUnlock()
		if level < 0 {
			return nil
		}
		if err := db.compactLevel(level); err != nil {
			return err
		}
	}
}

// compactLevel performs one classic leveled compaction: pick victims at
// the level, find every overlapping SSTable in the next level, read and
// merge them all, and write the result back to the next level (paper §2.3:
// "at least one overlapping SSTable needs to be read from the next level").
func (db *DB) compactLevel(level int) error {
	start := time.Now()
	db.mu.Lock()
	var victims []*table
	if level == 0 {
		// All L0 tables participate (they overlap each other).
		victims = append(victims, db.levels[0]...)
	} else if len(db.levels[level]) > 0 {
		// Oldest table first: simple deterministic victim selection.
		victims = append(victims, db.levels[level][0])
	}
	if len(victims) == 0 {
		db.mu.Unlock()
		return nil
	}
	lo := victims[0].tbl.FirstKey()
	hi := victims[0].tbl.LastKey()
	for _, v := range victims[1:] {
		if bytes.Compare(v.tbl.FirstKey(), lo) < 0 {
			lo = v.tbl.FirstKey()
		}
		if bytes.Compare(v.tbl.LastKey(), hi) > 0 {
			hi = v.tbl.LastKey()
		}
	}
	next := level + 1
	var overlapping []*table
	for _, t := range db.levels[next] {
		if bytes.Compare(t.tbl.LastKey(), lo) < 0 || bytes.Compare(t.tbl.FirstKey(), hi) > 0 {
			continue
		}
		overlapping = append(overlapping, t)
	}
	inputs := append(append([]*table(nil), victims...), overlapping...)
	for _, t := range inputs {
		t.retain()
	}
	db.mu.Unlock()

	// Read and merge every input, newest (largest seq) winning per key.
	type entry struct {
		key, val []byte
		seq      uint64
	}
	var entries []entry
	var firstErr error
	for _, t := range inputs {
		if firstErr != nil {
			break
		}
		it := t.tbl.Iter(nil, nil)
		for it.Next() {
			entries = append(entries, entry{
				key: append([]byte(nil), it.Key()...),
				val: append([]byte(nil), it.Value()...),
				seq: t.seq,
			})
		}
		firstErr = it.Err()
		it.Release()
	}
	if firstErr != nil {
		for _, t := range inputs {
			t.release()
		}
		return fmt.Errorf("goleveldb: compact read: %w", firstErr)
	}
	sort.Slice(entries, func(i, j int) bool {
		if c := bytes.Compare(entries[i].key, entries[j].key); c != 0 {
			return c < 0
		}
		return entries[i].seq < entries[j].seq
	})

	// Fold duplicates and write output tables split at the target size.
	var newTables []*table
	w := sstable.NewWriter(db.opts.BlockSize)
	flushW := func() error {
		if w.NumEntries() == 0 {
			return nil
		}
		t, err := db.writeTable(next, w)
		if err != nil {
			return err
		}
		newTables = append(newTables, t)
		db.stats.bytesCompacted.Add(uint64(t.tbl.Size()))
		w = sstable.NewWriter(db.opts.BlockSize)
		return nil
	}
	for i := 0; i < len(entries); {
		j := i + 1
		val := entries[i].val
		for j < len(entries) && bytes.Equal(entries[j].key, entries[i].key) {
			if db.opts.MergeValues != nil {
				merged, err := db.opts.MergeValues(val, entries[j].val)
				if err != nil {
					for _, t := range inputs {
						t.release()
					}
					return err
				}
				val = merged
			} else {
				val = entries[j].val // newer replaces older
			}
			j++
		}
		if err := w.Add(entries[i].key, val); err != nil {
			for _, t := range inputs {
				t.release()
			}
			return err
		}
		if w.EstimatedSize() >= db.opts.TargetTableSize {
			if err := flushW(); err != nil {
				for _, t := range inputs {
					t.release()
				}
				return err
			}
		}
		i = j
	}
	if err := flushW(); err != nil {
		for _, t := range inputs {
			t.release()
		}
		return err
	}
	for _, t := range inputs {
		t.release()
	}

	// Publish: remove inputs, insert outputs sorted by first key.
	db.mu.Lock()
	deadSet := map[*table]bool{}
	for _, t := range inputs {
		deadSet[t] = true
	}
	keep := func(ts []*table) []*table {
		out := ts[:0]
		for _, t := range ts {
			if !deadSet[t] {
				out = append(out, t)
			}
		}
		return out
	}
	db.levels[level] = keep(db.levels[level])
	db.levels[next] = keep(db.levels[next])
	db.levels[next] = append(db.levels[next], newTables...)
	sort.Slice(db.levels[next], func(i, j int) bool {
		return bytes.Compare(db.levels[next][i].tbl.FirstKey(), db.levels[next][j].tbl.FirstKey()) < 0
	})
	if int32(next) > db.stats.maxDepth.Load() {
		db.stats.maxDepth.Store(int32(next))
	}
	db.mu.Unlock()

	for _, t := range inputs {
		t.markObsolete()
	}
	db.stats.compactions.Add(1)
	db.stats.tablesRead.Add(uint64(len(inputs)))
	db.stats.compactionNanos.Add(int64(time.Since(start)))
	return nil
}
