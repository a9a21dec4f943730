package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/core"
	"timeunion/internal/remote"
)

// stack is the program as people run it (cmd/tuserve), in process: two
// directory-backed tiers with the Fig-1 EBS and S3 models at time scale 0
// (accounting, no sleeps), core with WAL, metrics and journal on, and the
// data API behind the operational handler on a real loopback listener.
// The WAL sync policy is the program's default: fsync when a segment rolls
// and at Close.
type stack struct {
	dir        string
	cacheBytes int64
	tr         *tracing // nil in the untraced run

	fast, slow cloud.Store
	db         *core.DB

	srv    *http.Server
	served chan error
	url    string
}

// newStack creates the two tiers under dir; openDB and serve bring up the
// rest.
func newStack(dir string, cacheBytes int64, tr *tracing) (*stack, error) {
	s := &stack{dir: dir, cacheBytes: cacheBytes, tr: tr}
	fast, err := cloud.NewDirStore(filepath.Join(dir, "fast"), cloud.TierBlock, cloud.EBSModel(0))
	if err != nil {
		return nil, err
	}
	slow, err := cloud.NewDirStore(filepath.Join(dir, "slow"), cloud.TierObject, cloud.S3Model(0))
	if err != nil {
		return nil, err
	}
	s.fast, s.slow = fast, slow
	if tr != nil {
		s.fast = &tracedStore{Store: fast, tier: "fast", tr: tr}
		s.slow = &tracedStore{Store: slow, tier: "slow", tr: tr}
	}
	return s, nil
}

// openStack brings the whole stack up over a fresh directory.
func openStack(dir string, cacheBytes int64, tr *tracing) (*stack, error) {
	s, err := newStack(dir, cacheBytes, tr)
	if err != nil {
		return nil, err
	}
	if err := s.openDB(); err != nil {
		return nil, err
	}
	if err := s.serve(); err != nil {
		_ = s.closeDB() // the listen error is the one to report
		return nil, err
	}
	return s, nil
}

func (s *stack) openDB() error {
	db, err := core.Open(core.Options{
		Dir:               filepath.Join(s.dir, "local"),
		Fast:              s.fast,
		Slow:              s.slow,
		CacheBytes:        s.cacheBytes,
		ChunkSamples:      chunkSamples,
		MemTableSize:      memTableBytes,
		L0PartitionLength: l0PartitionMs,
		L2PartitionLength: l2PartitionMs,
	})
	if err != nil {
		return fmt.Errorf("open db: %w", err)
	}
	s.db = db
	return nil
}

func (s *stack) serve() error {
	backend := &remote.TimeUnionBackend{DB: s.db}
	var api http.Handler = remote.NewServer(backend)
	if s.tr != nil {
		api = &tracedAPI{tr: s.tr, inner: backend}
	}
	handler := remote.NewOpsHandler(api, remote.OpsConfig{
		Metrics: s.db.Metrics(),
		Journal: s.db.Journal(),
		Tree:    s.db.TreeSnapshot,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: handler}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	return nil
}

// stopServing shuts the listener down and waits for the serve loop to end.
func (s *stack) stopServing() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.srv = nil
	return err
}

// reopen closes the database and opens it again over the same directories,
// as a restart would. The server is not brought back: what follows a
// restart in the benchmark is a read-back straight through core.
func (s *stack) reopen() (time.Duration, error) {
	if err := s.stopServing(); err != nil {
		return 0, err
	}
	if err := s.closeDB(); err != nil {
		return 0, err
	}
	start := time.Now()
	err := s.openDB()
	return time.Since(start), err
}

// closeDB closes the database and leaves the tiers for the next openDB.
func (s *stack) closeDB() error {
	if s.db == nil {
		return nil
	}
	err := s.db.Close()
	s.db = nil
	if err != nil {
		return fmt.Errorf("close db: %w", err)
	}
	return nil
}

func (s *stack) close() error {
	err := s.stopServing()
	if cerr := s.closeDB(); err == nil {
		err = cerr
	}
	return err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

func (s *stack) walBytes() (int64, error) {
	return dirBytes(filepath.Join(s.dir, "local", "wal"))
}

// purgeWAL does what tuserve's minute-ly maintenance worker would do next,
// and returns the log's size before, which is every byte appended since the
// directory was created as long as nothing was purged earlier, and after.
func (s *stack) purgeWAL() (appended, kept int64, err error) {
	if appended, err = s.walBytes(); err != nil {
		return 0, 0, err
	}
	if _, err = s.db.PurgeWAL(); err != nil {
		return 0, 0, fmt.Errorf("purge wal: %w", err)
	}
	kept, err = s.walBytes()
	return appended, kept, err
}
