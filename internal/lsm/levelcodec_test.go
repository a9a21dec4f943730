package lsm

import (
	"bytes"
	"testing"

	"timeunion/internal/chunkenc"
	"timeunion/internal/sstable"
)

// TestBlockCodecFollowsLevel pins the level rule of newTableWriter: every
// live L0 and L1 table is byte-identical to a raw rebuild of its own
// entries, and every L2 table and patch to a DEFLATE rebuild, which is
// smaller than the raw one. The workload drives a flush, an L0→L1, an
// L1→L2 and one L2 patch, and all four kinds of table are live at the end.
func TestBlockCodecFollowsLevel(t *testing.T) {
	opts := smallOpts()
	env := newEnv(t, opts)
	ids := []uint64{1, 2, 3}
	end := fillSequential(t, env.l, ids, 40, 0, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	// One out-of-order sample inside a window already in L2, shipped down
	// by more fresh data: it lands as a patch (one patch stays below the
	// split-merge threshold of 2).
	putSeries(t, env.l, 1, []chunkenc.Sample{{T: 105, V: 777}})
	fillSequential(t, env.l, ids, 40, end, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}

	type live struct {
		h       *tableHandle
		level   int
		isPatch bool
	}
	var tables []live
	env.l.mu.RLock()
	for level, parts := range [][]*partition{env.l.l0, env.l.l1, env.l.l2} {
		for _, p := range parts {
			for _, h := range p.tables {
				tables = append(tables, live{h, level, false})
			}
			for _, ps := range p.patches {
				for _, h := range ps {
					tables = append(tables, live{h, level, true})
				}
			}
		}
	}
	env.l.mu.RUnlock()

	var seen [3]int
	patches := 0
	for _, tb := range tables {
		stored, err := tb.h.store.Get(tb.h.storeKey)
		if err != nil {
			t.Fatalf("get %s: %v", tb.h.storeKey, err)
		}
		raw := rebuildTable(t, tb.h, opts.BlockSize, true)
		switch {
		case tb.level < 2:
			if !bytes.Equal(raw, stored) {
				t.Errorf("L%d table %s: stored %d bytes differ from its raw rebuild (%d bytes)",
					tb.level, tb.h.storeKey, len(stored), len(raw))
			}
		default:
			deflated := rebuildTable(t, tb.h, opts.BlockSize, false)
			if !bytes.Equal(deflated, stored) {
				t.Errorf("L2 table %s (patch %v): stored %d bytes differ from its DEFLATE rebuild (%d bytes)",
					tb.h.storeKey, tb.isPatch, len(stored), len(deflated))
			}
			if len(raw) <= len(stored) {
				t.Errorf("L2 table %s (patch %v): raw rebuild %d bytes is not larger than the stored %d",
					tb.h.storeKey, tb.isPatch, len(raw), len(stored))
			}
		}
		seen[tb.level]++
		if tb.isPatch {
			patches++
		}
	}
	if seen[0] == 0 || seen[1] == 0 || seen[2] == 0 || patches == 0 {
		t.Fatalf("workload left live tables per level %v and %d patches; every kind must be covered", seen, patches)
	}
	st := env.l.Stats()
	if st.Flushes == 0 || st.CompactionsL0L1 == 0 || st.CompactionsL1L2 == 0 || st.PatchesCreated == 0 {
		t.Fatalf("workload did not drive every write: %+v", st)
	}
}

// rebuildTable writes h's entries, read back through IterWhole, into a
// fresh writer with the given block size, raw or with DEFLATE.
func rebuildTable(t *testing.T, h *tableHandle, blockSize int, raw bool) []byte {
	t.Helper()
	w := sstable.NewWriter(blockSize)
	if raw {
		w.DisableCompression()
	}
	it := h.tbl.IterWhole()
	defer it.Release()
	for it.Next() {
		if err := w.Add(it.Key(), it.Value()); err != nil {
			t.Fatalf("rebuild %s: %v", h.storeKey, err)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatalf("rebuild %s: %v", h.storeKey, err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatalf("rebuild %s: %v", h.storeKey, err)
	}
	return data
}
