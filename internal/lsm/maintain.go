package lsm

import (
	"fmt"
	"strings"
	"time"

	"timeunion/internal/cloud"
)

// adjustPartitionLengthsLocked implements Algorithm 1 (dynamic size
// control): when the fast-store footprint of levels 0-1 exceeds the budget
// ST, the partition lengths halve (bounded below by LB) so less data stays
// on the fast tier; when level 1 already spans a full L2 partition but the
// footprint is well under budget, the lengths double so more data stays on
// the fast tier. Lengths move by factors of two to keep partitions aligned
// across compactions (§3.3). Must be called with l.mu held.
func (l *LSM) adjustPartitionLengthsLocked() {
	st := l.opts.FastLimit
	if st <= 0 {
		return
	}
	var total int64
	for _, lvl := range [][]*partition{l.l0, l.l1} {
		for _, p := range lvl {
			total += p.sizeBytes()
		}
	}
	if total == 0 {
		return
	}
	lb := l.opts.PartitionLengthLowerBound
	ratio := l.r2 / l.r1
	if ratio < 1 {
		ratio = 1
	}
	// thres is the partition length at which the current data density
	// would exactly fill the budget.
	thres := float64(st) / float64(total) * float64(l.r1)
	if total > st {
		shrunk := false
		for float64(l.r1) > thres && l.r1/2 >= lb {
			l.r1 /= 2
			shrunk = true
		}
		if shrunk {
			l.r2 = l.r1 * ratio
			l.stats.shrinks.Add(1)
		}
		return
	}
	// Grow only when clearly underutilized (hysteresis: half the budget)
	// and only after level 1 has accumulated a full L2 partition of span —
	// the paper's "the overall time span of level 1 is large enough". One
	// doubling per adjustment: the span gate then naturally re-arms only
	// after enough new data arrives, so sparse data cannot balloon the
	// partitions in a single step and stall slow-tier shipping forever.
	var l1Span int64
	if len(l.l1) > 0 {
		l1Span = l.l1[len(l.l1)-1].maxT - l.l1[0].minT
	}
	if total*2 <= st && l1Span >= l.r2 && float64(l.r1)*2 <= thres/2 {
		l.r1 *= 2
		l.r2 = l.r1 * ratio
		l.stats.grows.Add(1)
	}
}

// ApplyRetention removes every partition whose data is entirely older than
// the watermark (paper §3.3 "Data retention": "the SSTables contained in
// those old partitions can be removed efficiently"). Partitions claimed by
// an in-flight compaction job are skipped — the next retention pass picks
// them up. The shrunken table set is committed to the manifests before any
// object is deleted; if the commit fails the objects stay referenced and
// are resurrected (and re-dropped) by the next recovery rather than
// half-deleted. It returns the number of partitions dropped.
func (l *LSM) ApplyRetention(watermark int64) int {
	if l.opts.ReadOnly {
		// A replica owns no data: retention is the writer's job, and the
		// replica observes it through the next manifest refresh.
		return 0
	}
	start := time.Now()
	var dropped []*partition
	var fastTouched, slowTouched bool
	var commitErr error
	// Journal every pass that dropped something or failed its commit, on
	// every exit path; a pass with nothing to drop stays silent.
	defer func() {
		if j := l.opts.Journal; j != nil && (len(dropped) > 0 || commitErr != nil) {
			j.Emit("lsm.retention", start, commitErr, map[string]any{
				"watermark":          watermark,
				"partitions_dropped": len(dropped),
				"fast_touched":       fastTouched,
				"slow_touched":       slowTouched,
			})
		}
	}()
	l.mu.Lock()
	keep := func(parts []*partition, fast bool) []*partition {
		out := parts[:0]
		for _, p := range parts {
			if p.maxT <= watermark && !l.busyParts[p] {
				dropped = append(dropped, p)
				if fast {
					fastTouched = true
				} else {
					slowTouched = true
				}
			} else {
				out = append(out, p)
			}
		}
		return out
	}
	l.l0 = keep(l.l0, true)
	l.l1 = keep(l.l1, true)
	l.l2 = keep(l.l2, false)
	l.mu.Unlock()

	if len(dropped) == 0 {
		return 0
	}
	commitErr = l.commitManifests(fastTouched, slowTouched, nil)
	if commitErr == nil {
		for _, p := range dropped {
			for _, h := range allTables(p) {
				h.markObsolete()
			}
		}
	}
	l.stats.dropped.Add(uint64(len(dropped)))
	return len(dropped)
}

// recoverLevels rebuilds the tree metadata from the per-tier manifests
// (DESIGN.md §4.11). A tier with no decodable manifest is empty: every
// tree commits a manifest pair in its first Open, before it writes any
// table, so a tier that lists tables without a manifest has lost it, and
// Open fails naming the tier before anything is deleted. Tombstones
// carried by the slow manifest are subtracted from the fast table set
// (they name L1 inputs consumed by an L1→L2 compaction whose fast-manifest
// write did not land before a crash). After rebuilding, every
// listed-but-unreferenced object — stranded compaction outputs, undeleted
// inputs, stale manifest versions — is garbage-collected, and a fresh
// manifest pair is committed.
func (l *LSM) recoverLevels() (err error) {
	start := time.Now()
	var tablesFast, tablesSlow int
	// Journal the recovery's outcome on every exit path — a failed
	// manifest load or listing is exactly the recovery failure an operator
	// reconstructs from the journal.
	defer func() {
		if j := l.opts.Journal; j != nil {
			j.Emit("lsm.recover", start, err, map[string]any{
				"tables_fast":   tablesFast,
				"tables_slow":   tablesSlow,
				"quarantined":   l.stats.quarantined.Load(),
				"orphans":       l.stats.orphans.Load(),
				"manifest_fast": l.mfFastVer.Load(),
				"manifest_slow": l.mfSlowVer.Load(),
			})
		}
	}()
	fastMf, fastStale, err := loadManifest(l.opts.Fast, manifestFastPrefix)
	if err != nil {
		return err
	}
	slowMf, slowStale, err := loadManifest(l.opts.Slow, manifestSlowPrefix)
	if err != nil {
		return err
	}
	tombs := map[string]bool{}
	if slowMf != nil {
		for _, k := range slowMf.tombstones {
			tombs[k] = true
		}
	}

	listPrefixes := func(store cloud.Store, prefixes ...string) ([]string, error) {
		var keys []string
		for _, prefix := range prefixes {
			ks, err := store.List(prefix)
			if err != nil {
				return nil, fmt.Errorf("lsm: recover list %s: %w", prefix, err)
			}
			keys = append(keys, ks...)
		}
		return keys, nil
	}
	fastListed, err := listPrefixes(l.opts.Fast, "l0/", "l1/")
	if err != nil {
		return err
	}
	slowListed, err := listPrefixes(l.opts.Slow, "l2/")
	if err != nil {
		return err
	}

	// The authoritative table set per tier is its manifest's. Without one
	// the listing cannot stand in: it may hold compacted-away inputs, and
	// GC against no manifest would delete every table.
	var fastKeys, slowKeys []string
	for _, tier := range []struct {
		name   string
		mf     *manifest
		listed []string
		keys   *[]string
	}{{"fast", fastMf, fastListed, &fastKeys}, {"slow", slowMf, slowListed, &slowKeys}} {
		switch {
		case tier.mf != nil:
			*tier.keys = tier.mf.tables
		case len(tier.listed) > 0:
			return fmt.Errorf("lsm: recover: %s tier lists %d tables (%s first) but has no decodable manifest; refusing to open", tier.name, len(tier.listed), tier.listed[0])
		}
	}
	tablesFast, tablesSlow = len(fastKeys), len(slowKeys)

	// The shared view builder (view.go) rebuilds the partition metadata;
	// the writer policy quarantines corrupt tables.
	b := newViewBuilder(l, tombs, true, nil)
	if err := b.addTier(l.opts.Fast, fastKeys); err != nil {
		return err
	}
	if err := b.addTier(l.opts.Slow, slowKeys); err != nil {
		return err
	}
	l.l0, l.l1, l.l2 = b.finish()
	maxSeq := b.maxSeq
	referenced := b.referenced

	// Restore the partition lengths and manifest versions the manifests
	// recorded (none for a new tree).
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
		if mf.nextSeq > maxSeq {
			maxSeq = mf.nextSeq
		}
	}
	if fastMf != nil {
		l.mfFastVer.Store(fastMf.version)
	}
	if slowMf != nil {
		l.mfSlowVer.Store(slowMf.version)
	}

	// GC: delete every listed object no manifest references — stranded
	// compaction outputs, inputs whose post-commit delete never ran,
	// tombstoned tables, stale manifest versions. Orphan names still feed
	// the sequence floor so a failed delete can never cause seq reuse.
	gcTier := func(store cloud.Store, keys []string) {
		for _, key := range keys {
			if referenced[key] {
				continue
			}
			if _, _, _, _, seq, _, err := parseTableName(key); err == nil && seq > maxSeq {
				maxSeq = seq
			}
			if store.Delete(key) == nil {
				l.stats.orphans.Add(1)
			}
		}
	}
	gcTier(l.opts.Fast, append(fastListed, fastStale...))
	gcTier(l.opts.Slow, append(slowListed, slowStale...))

	l.fileSeq.Store(maxSeq)

	// Commit a fresh pair: initializes a new tree, records the
	// quarantine/GC results, and clears served tombstones.
	return l.commitManifests(true, true, nil)
}

// parseTableName decodes "l{n}/{minT}-{maxT}/{seq}.sst" and patch names
// "l2/{minT}-{maxT}/{baseSeq}-p{seq}.sst" (timestamps biased by 2^63 so
// they sort as fixed-width decimals).
func parseTableName(key string) (level int, minT, maxT int64, baseSeq, seq uint64, isPatch bool, err error) {
	parts := strings.Split(key, "/")
	if len(parts) != 3 || !strings.HasSuffix(parts[2], ".sst") {
		return 0, 0, 0, 0, 0, false, fmt.Errorf("lsm: bad table name %q", key)
	}
	if _, err := fmt.Sscanf(parts[0], "l%d", &level); err != nil || level < 0 || level > 2 || parts[0] != fmt.Sprintf("l%d", level) {
		return 0, 0, 0, 0, 0, false, fmt.Errorf("lsm: bad level in table name %q", key)
	}
	var lo, hi uint64
	if _, err := fmt.Sscanf(parts[1], "%d-%d", &lo, &hi); err != nil {
		return 0, 0, 0, 0, 0, false, fmt.Errorf("lsm: bad partition dir %q", key)
	}
	minT = int64(lo - 1<<63)
	maxT = int64(hi - 1<<63)
	base := strings.TrimSuffix(parts[2], ".sst")
	if i := strings.Index(base, "-p"); i >= 0 {
		if _, err := fmt.Sscanf(base[:i], "%x", &baseSeq); err != nil {
			return 0, 0, 0, 0, 0, false, fmt.Errorf("lsm: bad patch name %q", key)
		}
		if _, err := fmt.Sscanf(base[i+2:], "%x", &seq); err != nil {
			return 0, 0, 0, 0, 0, false, fmt.Errorf("lsm: bad patch name %q", key)
		}
		return level, minT, maxT, baseSeq, seq, true, nil
	}
	if _, err := fmt.Sscanf(base, "%x", &seq); err != nil {
		return 0, 0, 0, 0, 0, false, fmt.Errorf("lsm: bad table name %q", key)
	}
	return level, minT, maxT, 0, seq, false, nil
}
