package lsm

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"timeunion/internal/cloud"
)

// This file implements the versioned manifest: a small CRC-guarded record
// on each tier's store naming the live tables of that tier. The manifest
// swap is the single atomic commit point for flushes and compactions
// (DESIGN.md §4.11) — a crash between writing output tables and deleting
// input tables leaves either the old or the new manifest version fully
// intact, and recovery garbage-collects whatever the surviving version
// does not reference. A tree commits its first manifest pair when it is
// created, so recovery never reconstructs a tier from its listing.

const (
	// manifestMagic is the first line of every manifest record.
	manifestMagic = "timeunion-manifest v1"
	// manifestFastPrefix/manifestSlowPrefix keep the two tiers' manifests
	// distinct even when Slow == Fast (the EBS-only configuration).
	manifestFastPrefix = "manifest/fast/"
	manifestSlowPrefix = "manifest/slow/"
)

// errManifestCorrupt marks a manifest object whose CRC or structure is
// invalid — a torn write of the newest version. Older versions stay
// trustworthy; loadManifest falls back to them.
var errManifestCorrupt = errors.New("lsm: manifest corrupt")

// castagnoli is the CRC polynomial used by the manifest (same family the
// WAL uses for its record guard).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// manifest is one decoded manifest version.
type manifest struct {
	version uint64
	nextSeq uint64
	r1, r2  int64
	// tables are the live table keys on this tier, sorted.
	tables []string
	// tombstones name fast-tier tables logically deleted by an L1→L2
	// compaction whose fast-manifest write has not landed yet. Only the
	// slow manifest carries them; recovery subtracts them from the fast
	// table set so a crash between the slow and fast commits cannot
	// resurrect compacted-away L1 inputs (which would double their data).
	tombstones []string
}

// manifestKey builds the object key for version v under prefix.
func manifestKey(prefix string, v uint64) string {
	return fmt.Sprintf("%s%020d", prefix, v)
}

// manifestVersionOf parses the version out of a manifest object key.
func manifestVersionOf(prefix, key string) (uint64, error) {
	return strconv.ParseUint(strings.TrimPrefix(key, prefix), 10, 64)
}

// encodeManifest renders m as the line-oriented text record with a
// trailing CRC over every preceding byte.
func encodeManifest(m *manifest) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", manifestMagic)
	fmt.Fprintf(&b, "version %d\n", m.version)
	fmt.Fprintf(&b, "nextseq %d\n", m.nextSeq)
	fmt.Fprintf(&b, "r1 %d\n", m.r1)
	fmt.Fprintf(&b, "r2 %d\n", m.r2)
	for _, k := range m.tables {
		fmt.Fprintf(&b, "table %s\n", k)
	}
	for _, k := range m.tombstones {
		fmt.Fprintf(&b, "tombstone %s\n", k)
	}
	body := b.String()
	return []byte(fmt.Sprintf("%scrc %08x\n", body, crc32.Checksum([]byte(body), castagnoli)))
}

// decodeManifest parses and CRC-checks a manifest record. Any structural
// or checksum failure returns errManifestCorrupt: the caller treats the
// object as a torn newest version and falls back to an older one.
func decodeManifest(data []byte) (*manifest, error) {
	text := string(data)
	idx := strings.LastIndex(text, "\ncrc ")
	if idx < 0 {
		return nil, errManifestCorrupt
	}
	body := text[:idx+1] // include the newline the CRC line follows
	var want uint32
	if _, err := fmt.Sscanf(text[idx+1:], "crc %08x", &want); err != nil {
		return nil, errManifestCorrupt
	}
	if crc32.Checksum([]byte(body), castagnoli) != want {
		return nil, errManifestCorrupt
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) == 0 || lines[0] != manifestMagic {
		return nil, errManifestCorrupt
	}
	m := &manifest{}
	for _, line := range lines[1:] {
		field, value, ok := strings.Cut(line, " ")
		if !ok {
			return nil, errManifestCorrupt
		}
		var err error
		switch field {
		case "version":
			m.version, err = strconv.ParseUint(value, 10, 64)
		case "nextseq":
			m.nextSeq, err = strconv.ParseUint(value, 10, 64)
		case "r1":
			m.r1, err = strconv.ParseInt(value, 10, 64)
		case "r2":
			m.r2, err = strconv.ParseInt(value, 10, 64)
		case "table":
			m.tables = append(m.tables, value)
		case "tombstone":
			m.tombstones = append(m.tombstones, value)
		default:
			err = errManifestCorrupt
		}
		if err != nil {
			return nil, errManifestCorrupt
		}
	}
	return m, nil
}

// loadManifest reads the newest decodable manifest version under prefix.
// It returns nil (with no error) when no version decodes — a new tree, or
// a tier whose manifest was lost, which recoverLevels tells apart by its
// listing. stale lists every manifest key that is NOT the chosen version
// (older versions and torn newer ones), for GC.
//
// A Get failure on a listed key is a hard error, never a fallback: the key
// was durably written, so skipping it could silently recover an older
// version and GC newer committed tables — data loss. Only a CRC/structure
// failure (a torn write that never committed) falls back.
func loadManifest(store cloud.Store, prefix string) (m *manifest, stale []string, err error) {
	keys, err := store.List(prefix)
	if err != nil {
		return nil, nil, fmt.Errorf("lsm: manifest list %s: %w", prefix, err)
	}
	sort.Strings(keys) // versions are fixed-width decimals: oldest first
	for i := len(keys) - 1; i >= 0; i-- {
		if m != nil {
			stale = append(stale, keys[i])
			continue
		}
		data, err := store.Get(keys[i])
		if err != nil {
			return nil, nil, fmt.Errorf("lsm: manifest read %s: %w", keys[i], err)
		}
		dm, err := decodeManifest(data)
		if err != nil {
			// Torn newest version: never committed, fall back.
			stale = append(stale, keys[i])
			continue
		}
		if v, err := manifestVersionOf(prefix, keys[i]); err != nil || v != dm.version {
			stale = append(stale, keys[i])
			continue
		}
		m = dm
	}
	return m, stale, nil
}

// liveTableKeysLocked snapshots the live table keys per tier, sorted.
// Caller holds l.mu (read or write).
func (l *LSM) liveTableKeysLocked() (fastKeys, slowKeys []string) {
	for _, lvl := range [][]*partition{l.l0, l.l1} {
		for _, p := range lvl {
			for _, h := range allTables(p) {
				fastKeys = append(fastKeys, h.storeKey)
			}
		}
	}
	for _, p := range l.l2 {
		for _, h := range allTables(p) {
			slowKeys = append(slowKeys, h.storeKey)
		}
	}
	sort.Strings(fastKeys)
	sort.Strings(slowKeys)
	return fastKeys, slowKeys
}

// commitManifests durably publishes the current in-memory table set:
// writeFast commits the fast tier (L0+L1), writeSlow the slow tier (L2).
// fastTombstones name fast tables logically deleted by this edit; they
// ride in the slow manifest until the next fast manifest lands (see the
// manifest struct). The slow Put is the atomic point of a cross-tier
// commit; the fast Put follows under the same manifestMu so the two can
// never interleave with another committer's pair.
//
// Lock order: manifestMu first, then l.mu (read) for the snapshot. Callers
// must not hold l.mu.
func (l *LSM) commitManifests(writeFast, writeSlow bool, fastTombstones []string) (err error) {
	l.manifestMu.Lock()
	defer l.manifestMu.Unlock()

	l.mu.RLock()
	fastKeys, slowKeys := l.liveTableKeysLocked()
	r1, r2 := l.r1, l.r2
	l.mu.RUnlock()
	nextSeq := l.fileSeq.Load()

	// Accumulate tombstones before any write: if the slow Put lands and the
	// fast Put fails, the next slow commit must still carry them.
	l.pendingTombs = append(l.pendingTombs, fastTombstones...)

	start := time.Now()
	tombs := len(l.pendingTombs)
	defer func() {
		if j := l.opts.Journal; j != nil {
			j.Emit("lsm.manifest_commit", start, err, map[string]any{
				"fast":         writeFast,
				"slow":         writeSlow,
				"version_fast": l.mfFastVer.Load(),
				"version_slow": l.mfSlowVer.Load(),
				"tables_fast":  len(fastKeys),
				"tables_slow":  len(slowKeys),
				"tombstones":   tombs,
			})
		}
	}()

	if writeSlow {
		v := l.mfSlowVer.Load() + 1
		m := &manifest{version: v, nextSeq: nextSeq, r1: r1, r2: r2,
			tables: slowKeys, tombstones: append([]string(nil), l.pendingTombs...)}
		key := manifestKey(manifestSlowPrefix, v)
		if err := l.opts.Slow.Put(key, encodeManifest(m)); err != nil {
			return fmt.Errorf("lsm: commit slow manifest: %w", err)
		}
		l.mfSlowVer.Store(v)
		l.book.commit(1, slowKeys)
		if v > 1 {
			// Best effort: a stale version left behind is GC'd at recovery.
			_ = l.opts.Slow.Delete(manifestKey(manifestSlowPrefix, v-1))
		}
	}
	if writeFast {
		v := l.mfFastVer.Load() + 1
		m := &manifest{version: v, nextSeq: nextSeq, r1: r1, r2: r2, tables: fastKeys}
		key := manifestKey(manifestFastPrefix, v)
		if err := l.opts.Fast.Put(key, encodeManifest(m)); err != nil {
			return fmt.Errorf("lsm: commit fast manifest: %w", err)
		}
		l.mfFastVer.Store(v)
		l.book.commit(0, fastKeys)
		// The fast manifest now authoritatively excludes every tombstoned
		// table, so the tombstones have served their purpose.
		l.pendingTombs = nil
		if v > 1 {
			_ = l.opts.Fast.Delete(manifestKey(manifestFastPrefix, v-1))
		}
	}
	l.stats.manifestCommits.Add(1)
	return nil
}

// objectBook accounts for the writer's table objects that the tree's view
// may not reference: the declared outputs of in-flight flushes and
// compactions, declared before their Put, and the retired tables whose
// delete has not completed. committed holds each tier's table keys at its
// last manifest commit, sorted; a key that a commit drops moves to retired
// in the same step. The view (the tree and the committed manifests) plus
// these two sets covers every table object the writer made at every
// instant, which is what makes AuditObjects exact. A replica's book stays
// empty: it writes, commits and deletes nothing. mu is a leaf lock.
type objectBook struct {
	mu        sync.Mutex
	outputs   map[string]bool
	retired   map[string]bool
	committed [2][]string // fast, slow
}

// declare records key as an in-flight output before its Put.
func (b *objectBook) declare(key string) {
	b.mu.Lock()
	b.outputs[key] = true
	b.mu.Unlock()
}

// forget drops key once its object is deleted (or its Put failed).
func (b *objectBook) forget(key string) {
	b.mu.Lock()
	delete(b.outputs, key)
	delete(b.retired, key)
	b.mu.Unlock()
}

// commit records that tier's manifest now names exactly keys (sorted):
// committed outputs stop being in flight, and keys the previous commit
// named and this one drops are retired until their delete completes.
func (b *objectBook) commit(tier int, keys []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	old := b.committed[tier]
	i := 0
	for _, k := range keys {
		for i < len(old) && old[i] < k {
			b.retired[old[i]] = true
			i++
		}
		if i < len(old) && old[i] == k {
			i++
		}
		delete(b.outputs, k)
	}
	for ; i < len(old); i++ {
		b.retired[old[i]] = true
	}
	b.committed[tier] = keys
}

// ObjectAudit classifies, at one instant, the objects listed under the
// tree's data and manifest prefixes that no view references. A view is
// the in-memory tree or a tier's last committed manifest. Each list is
// sorted.
type ObjectAudit struct {
	// InFlight are declared outputs of an in-flight flush or compaction.
	InFlight []string
	// PendingDelete are retired tables whose delete has not completed.
	PendingDelete []string
	// Orphans are the rest: objects nothing will adopt or delete short of
	// recovery GC.
	Orphans []string
}

// AuditObjects lists both tiers and classifies every object no view
// references. It is the crash-torture harness's accessor; production code
// does not call it. On a busy tree InFlight and PendingDelete may be
// non-empty; Orphans is empty unless an object leaked. Once the tree is
// idle all three are empty.
//
// Holding manifestMu freezes the view's committed half and every move
// between the sets, so between the listing and the snapshot after it the
// sets change only by a new output's declare and by an object's delete
// (and the forget that follows it). A listed key the snapshot cannot
// place is therefore re-checked: if it is gone it was deleted, not leaked.
func (l *LSM) AuditObjects() (ObjectAudit, error) {
	l.manifestMu.Lock()
	defer l.manifestMu.Unlock()

	type listed struct {
		store cloud.Store
		key   string
	}
	var keys []listed
	scan := func(store cloud.Store, prefixes ...string) error {
		for _, prefix := range prefixes {
			ks, err := store.List(prefix)
			if err != nil {
				return err
			}
			for _, k := range ks {
				keys = append(keys, listed{store, k})
			}
		}
		return nil
	}
	if err := scan(l.opts.Fast, "l0/", "l1/", manifestFastPrefix); err != nil {
		return ObjectAudit{}, err
	}
	if err := scan(l.opts.Slow, "l2/", manifestSlowPrefix); err != nil {
		return ObjectAudit{}, err
	}

	l.mu.RLock()
	fastKeys, slowKeys := l.liveTableKeysLocked()
	l.mu.RUnlock()
	referenced := map[string]bool{
		manifestKey(manifestFastPrefix, l.mfFastVer.Load()): true,
		manifestKey(manifestSlowPrefix, l.mfSlowVer.Load()): true,
	}
	var a ObjectAudit
	var unaccounted []listed
	b := l.book
	b.mu.Lock()
	for _, ks := range [][]string{fastKeys, slowKeys, b.committed[0], b.committed[1]} {
		for _, k := range ks {
			referenced[k] = true
		}
	}
	for _, o := range keys {
		switch {
		case referenced[o.key]:
		case b.outputs[o.key]:
			a.InFlight = append(a.InFlight, o.key)
		case b.retired[o.key]:
			a.PendingDelete = append(a.PendingDelete, o.key)
		default:
			unaccounted = append(unaccounted, o)
		}
	}
	b.mu.Unlock()
	for _, o := range unaccounted {
		if _, err := o.store.Size(o.key); cloud.IsNotFound(err) {
			continue
		} else if err != nil {
			return ObjectAudit{}, err
		}
		a.Orphans = append(a.Orphans, o.key)
	}
	sort.Strings(a.InFlight)
	sort.Strings(a.PendingDelete)
	sort.Strings(a.Orphans)
	return a, nil
}
