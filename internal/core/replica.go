package core

import (
	"errors"
	"fmt"
	"time"

	"timeunion/internal/encoding"
	"timeunion/internal/head"
	"timeunion/internal/lsm"
)

// ErrReadOnly is returned by every mutating entry point of a DB opened
// with OpenReplica. Remote servers map it to 403 Forbidden.
var ErrReadOnly = errors.New("core: database is open as a read replica")

// defaultReplicaRefresh is the manifest/catalog poll interval when
// Options.ReplicaRefreshInterval is zero.
const defaultReplicaRefresh = time.Second

// OpenReplica opens a read-only database over the same shared stores a
// live writer uses (DESIGN.md §4.13). A replica has no WAL and no local
// state: the series catalog comes from the writer's published catalog
// objects, the table set from the versioned manifests, and both are
// re-polled by a background refresh loop (or explicitly via Refresh).
// Every mutating method returns ErrReadOnly. Replicas never write to the
// shared stores, so any number of them can run against one writer.
func OpenReplica(opts Options) (*DB, error) {
	if opts.Store != nil {
		return nil, fmt.Errorf("core: OpenReplica requires the LSM store (no Store override)")
	}
	openStart := time.Now()
	db, err := newDB(opts, true)
	if err != nil {
		return nil, err
	}
	reg, journal := db.metrics, db.journal

	// The tree never polls: the loop below refreshes the catalog, then
	// the view, in one beat.
	tree, err := lsm.Open(lsm.Options{
		Fast:      opts.Fast,
		Slow:      opts.Slow,
		Cache:     db.cache,
		BlockSize: opts.BlockSize,
		ReadOnly:  true,
		Metrics:   reg,
		Journal:   journal,
	})
	if err != nil {
		return nil, err
	}
	db.store = tree

	hh, err := head.New(head.Options{
		ChunkSamples:   opts.ChunkSamples,
		SlotSize:       opts.SlotSize,
		SlotsPerRegion: opts.SlotsPerRegion,
		// A replica never appends, so its head never fills a chunk; the
		// sink exists to satisfy the contract and to fail loudly if a
		// mutation guard is ever bypassed.
		Sink: func(encoding.Key, []byte) error {
			return fmt.Errorf("core: replica head must not flush chunks")
		},
		Metrics: reg,
	})
	if err != nil {
		db.store.Close()
		return nil, err
	}
	db.head = hh

	// Initial refresh: install the writer's catalog so the table set the
	// tree just loaded is resolvable by tag selectors.
	if _, err := db.loadCatalog(); err != nil {
		db.store.Close()
		hh.Close()
		return nil, err
	}

	if opts.ReplicaRefreshInterval >= 0 {
		iv := opts.ReplicaRefreshInterval
		if iv == 0 {
			iv = defaultReplicaRefresh
		}
		db.replicaStop = make(chan struct{})
		db.replicaWg.Add(1)
		go db.replicaLoop(iv)
	}

	if journal != nil {
		journal.Emit("core.open", openStart, nil, map[string]any{
			"replica": true,
			"series":  hh.NumSeries(),
			"groups":  hh.NumGroups(),
		})
	}
	return db, nil
}

// Replica reports whether this DB was opened with OpenReplica.
func (db *DB) Replica() bool { return db.replica }

// Refresh advances a replica to the writer's newest published state: the
// series catalog first (so every table the new view references is
// resolvable), then the LSM view from the versioned manifests. It reports
// whether anything changed. Calling Refresh on a writer is an error.
func (db *DB) Refresh() (bool, error) {
	if !db.replica {
		return false, fmt.Errorf("core: Refresh requires a replica (OpenReplica)")
	}
	catChanged, catErr := db.loadCatalog()
	if catErr != nil {
		return catChanged, catErr
	}
	tree, ok := db.store.(*lsm.LSM)
	if !ok {
		return catChanged, nil
	}
	viewChanged, viewErr := tree.Refresh()
	return catChanged || viewChanged, viewErr
}

// replicaLoop polls the shared stores until Close. Refresh errors are
// transient by construction (the previous view keeps serving), so the
// loop just retries on the next tick; persistent failures surface through
// the lsm.view_refresh journal events.
func (db *DB) replicaLoop(interval time.Duration) {
	defer db.replicaWg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-db.replicaStop:
			return
		case <-t.C:
			_, _ = db.Refresh()
		}
	}
}
