package lsm

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/sstable"
)

// This file implements the read-only side of the manifest protocol
// (DESIGN.md §4.13): rebuilding an immutable tree *view* from a manifest
// version, and atomically swapping a replica's view as the writer commits
// new versions. The view builder is shared with writer recovery
// (recoverLevels), so the two paths cannot drift; they differ only in
// policy — the writer quarantines corrupt tables and garbage-collects,
// a replica never writes or deletes anything on the shared stores.

// ErrReadOnly is returned by every mutating operation of a tree opened
// with Options.ReadOnly.
var ErrReadOnly = errors.New("lsm: tree is open read-only")

// refreshRetries bounds how many times one Refresh re-lists after losing
// the prune race (the writer's best-effort delete of manifest version−1 or
// of compacted-away tables landing between the replica's List and Get).
// Each retry re-reads the listing, so a single quiescent writer moment
// lets the refresh converge; the bound only guards against a pathological
// writer committing faster than the replica can list.
const refreshRetries = 32

// viewBuilder reconstructs per-level partition metadata from the table
// keys a manifest names. It is the extracted core of writer recovery,
// parameterized by the two policies that differ between a recovering
// writer and a refreshing replica:
//
//   - quarantine: a writer deletes structurally corrupt tables (torn
//     writes whose data is still in the WAL); a replica must not write to
//     the shared store, and a corrupt *committed* table cannot be a torn
//     write anyway — the refresh fails and the old view stays installed.
//   - reuse: a replica refresh adopts the still-live handles of its
//     current view (retaining them) instead of re-opening every table, so
//     steady-state refreshes cost one List+Get per tier.
type viewBuilder struct {
	l          *LSM
	quarantine bool
	reuse      map[string]*tableHandle

	tombs      map[string]bool
	referenced map[string]bool
	levels     map[int][]*partition
	maxSeq     uint64
	// adopted tracks every reference this builder owns (fresh opens and
	// retained reuses alike) so abort can undo a half-built view.
	adopted []*tableHandle
}

func newViewBuilder(l *LSM, tombs map[string]bool, quarantine bool, reuse map[string]*tableHandle) *viewBuilder {
	return &viewBuilder{
		l:          l,
		quarantine: quarantine,
		reuse:      reuse,
		tombs:      tombs,
		referenced: map[string]bool{},
		levels:     map[int][]*partition{},
	}
}

// abort releases every reference the builder acquired. Handles opened
// fresh drop to zero references; handles adopted from a live view drop
// back to the view's single reference. Nothing is deleted (obsolete is
// never set here).
func (b *viewBuilder) abort() {
	for _, h := range b.adopted {
		h.release()
	}
	b.adopted = nil
}

// openHandle returns a tree reference for key: the reused live handle
// when available, a freshly opened table otherwise.
func (b *viewBuilder) openHandle(store cloud.Store, key string, seq uint64) (*tableHandle, error) {
	if h, ok := b.reuse[key]; ok {
		h.retain()
		b.adopted = append(b.adopted, h)
		return h, nil
	}
	tbl, err := sstable.OpenTable(store, key, b.l.opts.Cache)
	if err != nil {
		return nil, err
	}
	h := newTableHandle(tbl, store, key, seq, b.l.book)
	b.adopted = append(b.adopted, h)
	return h, nil
}

// addTier rebuilds one tier's partitions from its table keys: parse each
// key into (level, window, seq), group tables by partition directory, sort
// base tables by first key (disjoint ID ranges), and attach patches to
// their base tables by baseSeq in seq order.
func (b *viewBuilder) addTier(store cloud.Store, keys []string) error {
	l := b.l
	type patchRec struct {
		baseSeq uint64
		h       *tableHandle
	}
	parts := map[string]*partition{}
	partLevel := map[string]int{}
	patchesByPart := map[string][]patchRec{}
	var order []string
	for _, key := range keys {
		if b.tombs[key] {
			continue
		}
		level, minT, maxT, baseSeq, seq, isPatch, err := parseTableName(key)
		if err != nil {
			continue // foreign object in the bucket: skip
		}
		b.referenced[key] = true
		if seq > b.maxSeq {
			b.maxSeq = seq
		}
		dir := key[:strings.LastIndex(key, "/")]
		p := parts[dir]
		if p == nil {
			p = &partition{minT: minT, maxT: maxT}
			parts[dir] = p
			partLevel[dir] = level
			order = append(order, dir)
		}
		h, err := b.openHandle(store, key, seq)
		if err != nil {
			if b.quarantine && errors.Is(err, sstable.ErrCorrupt) {
				// A structurally invalid table can only be a torn write:
				// flush marks (and WAL purge) happen strictly after every
				// table of a flush is durably committed, so this table's
				// data is still in the WAL and will be replayed.
				// Quarantine it.
				_ = store.Delete(key)
				l.stats.quarantined.Add(1)
				if j := l.opts.Journal; j != nil {
					tier := "slow"
					if store == l.opts.Fast {
						tier = "fast"
					}
					// One event per quarantined table: each is its own
					// data-loss-averted incident with its own key, emitted
					// only after the delete; the view build the loop serves
					// has no single outcome to defer-journal here.
					//lint:ignore journalcover per-table quarantine events are intentional; a deferred emit would collapse distinct corrupt-table incidents
					j.Emit("lsm.quarantine", time.Now(), nil, map[string]any{
						"key": key, "tier": tier,
					})
				}
				continue
			}
			return fmt.Errorf("lsm: view open %s: %w", key, err)
		}
		if isPatch {
			patchesByPart[dir] = append(patchesByPart[dir], patchRec{baseSeq: baseSeq, h: h})
		} else {
			p.tables = append(p.tables, h)
		}
	}
	for _, dir := range order {
		p := parts[dir]
		if len(p.tables) == 0 && len(patchesByPart[dir]) == 0 {
			continue // every table of the partition was quarantined
		}
		// Base tables sorted by first key (disjoint ID ranges).
		sort.Slice(p.tables, func(i, j int) bool {
			return string(p.tables[i].tbl.FirstKey()) < string(p.tables[j].tbl.FirstKey())
		})
		p.patches = make([][]*tableHandle, len(p.tables))
		recs := patchesByPart[dir]
		sort.Slice(recs, func(i, j int) bool { return recs[i].h.seq < recs[j].h.seq })
		for _, rec := range recs {
			attached := false
			for i, base := range p.tables {
				if base.seq == rec.baseSeq {
					p.patches[i] = append(p.patches[i], rec.h)
					attached = true
					break
				}
			}
			if !attached && len(p.tables) > 0 {
				// Base was replaced by a split-merge before this patch's
				// metadata was dropped: attach to the first table, which
				// preserves query correctness (rank still orders it).
				p.patches[0] = append(p.patches[0], rec.h)
			}
		}
		b.levels[partLevel[dir]] = append(b.levels[partLevel[dir]], p)
	}
	return nil
}

// finish sorts each level's partitions by window start and returns the
// three levels.
func (b *viewBuilder) finish() (l0, l1, l2 []*partition) {
	for _, parts := range b.levels {
		sort.Slice(parts, func(i, j int) bool { return parts[i].minT < parts[j].minT })
	}
	return b.levels[0], b.levels[1], b.levels[2]
}

// refreshResult carries what one successful view swap changed, for the
// lsm.view_refresh journal event.
type refreshResult struct {
	changed                bool
	oldFast, newFast       uint64
	oldSlow, newSlow       uint64
	added, dropped         int
	tablesFast, tablesSlow int
}

// Refresh polls the shared stores for newer manifest versions and, when
// found, atomically swaps in a freshly built view under the existing lock
// hierarchy, releasing the tree references of tables that left the set
// (the PR-6 ownership contract: a replica never marks handles obsolete,
// so releasing can never delete a shared object). It reports whether the
// view changed.
//
// The writer prunes manifest version−1 (and compacted-away tables)
// best-effort after each commit, so a NotFound on a key the replica just
// listed is an expected race, not corruption: Refresh re-lists and
// retries. Any other failure leaves the previous view installed and
// serving.
func (l *LSM) Refresh() (changed bool, err error) {
	if !l.opts.ReadOnly {
		return false, fmt.Errorf("lsm: Refresh is only valid on a read-only tree")
	}
	l.refreshMu.Lock()
	defer l.refreshMu.Unlock()

	start := time.Now()
	var res refreshResult
	retries := 0
	// Journal every refresh that changed the view or failed, on every exit
	// path; the steady-state "nothing new" poll stays silent.
	defer func() {
		if j := l.opts.Journal; j != nil && (err != nil || res.changed) {
			j.Emit("lsm.view_refresh", start, err, map[string]any{
				"version_fast_old": res.oldFast,
				"version_fast":     res.newFast,
				"version_slow_old": res.oldSlow,
				"version_slow":     res.newSlow,
				"tables_added":     res.added,
				"tables_dropped":   res.dropped,
				"tables_fast":      res.tablesFast,
				"tables_slow":      res.tablesSlow,
				"retries":          retries,
			})
		}
	}()
	for {
		res, err = l.tryRefresh()
		if err == nil || !cloud.IsNotFound(err) {
			break
		}
		retries++
		if retries >= refreshRetries {
			err = fmt.Errorf("lsm: refresh: lost the manifest prune race %d times: %w", retries, err)
			break
		}
		// The writer pruned a listed version between our List and Get (or
		// deleted a table a just-superseded manifest named): re-list.
	}
	if err != nil {
		return false, err
	}
	return res.changed, nil
}

// tryRefresh performs one load-build-swap attempt. Callers hold
// l.refreshMu, which serializes view swaps; queries proceed concurrently
// under the ordinary retain/release contract.
func (l *LSM) tryRefresh() (refreshResult, error) {
	res := refreshResult{
		oldFast: l.mfFastVer.Load(),
		oldSlow: l.mfSlowVer.Load(),
	}
	res.newFast, res.newSlow = res.oldFast, res.oldSlow

	fastMf, _, err := loadManifest(l.opts.Fast, manifestFastPrefix)
	if err != nil {
		return res, err
	}
	slowMf, _, err := loadManifest(l.opts.Slow, manifestSlowPrefix)
	if err != nil {
		return res, err
	}
	var fastVer, slowVer uint64
	var fastKeys, slowKeys []string
	tombs := map[string]bool{}
	if fastMf != nil {
		fastVer = fastMf.version
		fastKeys = fastMf.tables
	}
	if slowMf != nil {
		slowVer = slowMf.version
		slowKeys = slowMf.tables
		for _, k := range slowMf.tombstones {
			tombs[k] = true
		}
	}
	if fastVer == res.oldFast && slowVer == res.oldSlow {
		// Nothing committed since the last swap. A replica only trusts
		// manifests (it never falls back to listings: a listing of a live
		// writer's store is not a consistent cut), so no-manifest-yet also
		// lands here with the empty initial view.
		return res, nil
	}

	// Snapshot the current view's handles for reuse. Only Refresh itself
	// releases tree references on a replica (and refreshMu serializes it),
	// so the snapshot stays valid until the swap below.
	reuse := map[string]*tableHandle{}
	l.mu.RLock()
	for _, lvl := range [][]*partition{l.l0, l.l1, l.l2} {
		for _, p := range lvl {
			for _, h := range allTables(p) {
				reuse[h.storeKey] = h
			}
		}
	}
	l.mu.RUnlock()

	b := newViewBuilder(l, tombs, false, reuse)
	if err := b.addTier(l.opts.Fast, fastKeys); err != nil {
		b.abort()
		return res, err
	}
	if err := b.addTier(l.opts.Slow, slowKeys); err != nil {
		b.abort()
		return res, err
	}
	l0, l1, l2 := b.finish()

	// Swap the view under the ordinary lock hierarchy. In-flight queries
	// that retained handles of the outgoing view keep reading them; the
	// releases below only drop the tree's own references.
	l.mu.Lock()
	var old []*tableHandle
	for _, lvl := range [][]*partition{l.l0, l.l1, l.l2} {
		for _, p := range lvl {
			old = append(old, allTables(p)...)
		}
	}
	l.l0, l.l1, l.l2 = l0, l1, l2
	for _, mf := range []*manifest{slowMf, fastMf} {
		if mf == nil {
			continue
		}
		if mf.r1 > 0 {
			l.r1 = mf.r1
		}
		if mf.r2 > 0 {
			l.r2 = mf.r2
		}
		if mf.nextSeq > l.fileSeq.Load() {
			l.fileSeq.Store(mf.nextSeq)
		}
	}
	l.mu.Unlock()
	l.mfFastVer.Store(fastVer)
	l.mfSlowVer.Store(slowVer)

	for _, h := range old {
		if !b.referenced[h.storeKey] {
			res.dropped++
		}
		h.release()
	}
	res.added = len(b.referenced) - (len(old) - res.dropped)
	res.changed = true
	res.newFast, res.newSlow = fastVer, slowVer
	res.tablesFast = len(fastKeys)
	res.tablesSlow = len(slowKeys)
	return res, nil
}
