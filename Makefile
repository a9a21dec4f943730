GO ?= go

.PHONY: tier1 tier1-faults tier1-obs tier1-iter tier1-replica benchmark-test examples race vet lint lint-json bench-parallel

# tier1 is the gate every change must keep green: full build + full test run
# (go test ./... includes TestNoIgnoredDiagnostics, the in-process tulint
# gate) + one iteration of the append and WAL-record benchmarks (WAL off and
# on), so they cannot break unnoticed + the standalone invariant suite.
tier1:
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -run '^$$' -bench 'AppendFast|AppendGroupFast|CommitBatch' -benchtime 1x ./internal/head ./internal/wal
	$(MAKE) lint

# tier1-faults is the crash-safety gate: vet plus 50 randomized
# crash-recovery torture schedules AND 50 deterministic mid-compaction kill
# schedules (every manifest-swap boundary) under the race detector, at a
# fixed seed so failures reproduce, and bounded fuzz passes of the WAL's
# segment-entry decoder over arbitrary checksummed records and of recovery
# over a mapped segment's torn, zero-filled tail.
tier1-faults: vet
	TORTURE_SCHEDULES=50 TORTURE_SEED=20260806 $(GO) test ./internal/core -run 'TestCrashTorture|TestCompactionKillTorture' -race -count=1
	$(GO) test -count=1 ./internal/wal -run '^$$' -fuzz FuzzSegmentEntries -fuzztime 2000x
	$(GO) test -count=1 ./internal/wal -run '^$$' -fuzz FuzzMappedTail -fuzztime 2000x

# tier1-obs is the observability gate: the obs package and the operational
# HTTP surface under the race detector, the traced-query e2e check, the <5%
# instrumentation-overhead guard on the parallel append workload, and the
# <1% event-journal overhead guard.
tier1-obs:
	$(GO) test -race -count=1 ./internal/obs ./internal/remote
	$(GO) test -race -count=1 ./internal/core -run TestQueryTraceE2E
	OBS_OVERHEAD_GUARD=1 $(GO) test -count=1 ./internal/core -run TestObsOverheadBudget
	JOURNAL_OVERHEAD_GUARD=1 $(GO) test -count=1 ./internal/core -run TestJournalOverheadBudget

# tier1-replica is the read-replica gate (DESIGN.md §4.13): the read-only
# LSM view suite (refresh, prune-race retry, injected NotFounds, shared-
# object ownership), the writer-vs-replica query-identity fuzz, the typed
# ErrReadOnly matrix and catalog protocol tests, the replica's HTTP write
# refusal, and a torture subset with the concurrent replica riding every
# kill schedule — all under the race detector.
tier1-replica:
	$(GO) test -race -count=1 ./internal/lsm -run 'TestReadOnly|TestRefresh|TestViewRefreshJournal|TestReplicaNeverDeletes'
	$(GO) test -race -count=1 ./internal/core -run 'TestReplica|TestWriterReplicaIdentityFuzz|TestCatalogRoundTrip|TestRefreshOnWriterErrors'
	$(GO) test -race -count=1 ./internal/remote -run 'TestReplicaMutationsForbiddenOverHTTP'
	TORTURE_SCHEDULES=12 TORTURE_SEED=20260807 $(GO) test -race -count=1 ./internal/core -run TestCompactionKillTorture

# tier1-iter is the streaming read-path gate: the iterator contract, the
# block cache (singleflight, read-ahead inserts racing hits),
# streaming==materializing identity, and the materializer's concurrent
# sets on one id cursor (identity at 1, 2 and 8 workers, error naming,
# cancellation) under the race detector, both identity checks again over a
# block cache smaller than one table with cache integrity checks on (so
# misses, evictions and read-aheads race across the workers), the selector
# path (index and matchers) under the race detector, the pooling contract
# under the race detector with buffer poisoning and cache integrity checks
# on, and bounded fuzz passes over the merge iterator, batch-vs-streaming
# decode, index.Select against its oracle, the end-to-end query comparison,
# the query encoder against encoding/json, and the fast-path write decoders
# against encoding/json. The allocation pins (TestQuerySeriesSetAllocs,
# TestQueryStreamAllocs, TestWriteFastAllocs, TestWriteGroupAllocs,
# DESIGN.md §4.10) run in plain `go test ./...`.
tier1-iter:
	$(GO) test -race -count=1 ./internal/chunkenc ./internal/cloud ./internal/lsm ./internal/index ./internal/labels
	$(GO) test -race -count=1 ./internal/core -run 'TestStreaming|TestNarrowRange|TestConcurrentSeriesSetNoBleed|TestReleasedIteratorPoisonInvisible|TestQueryWorkersIdentical|TestSmallCache|TestQueryErrorNamesSeries|TestQueryContextCancel'
	$(GO) test -count=1 ./internal/chunkenc -run '^$$' -fuzz FuzzMergeIterator -fuzztime 500x
	$(GO) test -count=1 ./internal/chunkenc -run '^$$' -fuzz FuzzXORBatchIdentity -fuzztime 500x
	$(GO) test -count=1 ./internal/chunkenc -run '^$$' -fuzz FuzzGroupSlotBatchIdentity -fuzztime 500x
	$(GO) test -count=1 ./internal/index -run '^$$' -fuzz FuzzSelect -fuzztime 2000x
	$(GO) test -count=1 ./internal/core -run '^$$' -fuzz FuzzStreamingQuery -fuzztime 25x
	$(GO) test -count=1 ./internal/remote -run '^$$' -fuzz FuzzSeriesEncoding -fuzztime 500x
	$(GO) test -count=1 ./internal/remote -run '^$$' -fuzz FuzzFastWriteDecode -fuzztime 500x
	$(GO) test -count=1 ./internal/remote -run '^$$' -fuzz FuzzGroupWriteDecode -fuzztime 500x

# benchmark-test runs the tests of the benchmark program. benchmark/ is its
# own module (it replaces timeunion with ../), so `go test ./...` from the
# root never reaches its manifest and statistics tests.
benchmark-test:
	cd benchmark && $(GO) test ./...

# examples runs every program under examples/ end to end; each must exit 0.
# hybrid-tiering is the one that configures Algorithm 1 by its budget
# alone, and nothing else executes it.
examples:
	for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# race runs the concurrency-sensitive packages under the race detector.
# The bench experiment suite takes ~3 minutes without race and several
# multiples of that with it, so the default 10m per-package test timeout
# needs headroom.
race:
	$(GO) test -race -timeout 40m ./internal/...

# vet runs the full analyzer set — stdmethods included — on every package
# except internal/chunkenc, the one place the SampleIterator Seek(int64)
# bool contract is allowed to live (stdmethods wants io.Seeker's signature
# there). The seekcontract analyzer in `make lint` is what keeps Seek
# declarations from leaking into other packages, so this exemption cannot
# silently widen.
vet:
	$(GO) vet $$($(GO) list ./... | grep -v '^timeunion/internal/chunkenc$$')
	$(GO) vet -stdmethods=false ./internal/chunkenc

# lint runs tulint (internal/lint), the project-invariant static-analysis
# suite: allochot, atomicalign, ctxflow, errwrap, faultcover, journalcover,
# lockgraph, metricname, mmapescape, poolown, seekcontract
# (DESIGN.md §4.9, §4.14). The -budget flag fails the gate if the whole
# run (load + analyzers + call graph) exceeds 60s, keeping the
# interprocedural passes honest as the module grows. Suppress a deliberate
# violation with //lint:ignore <analyzer> <reason> on or above the
# offending line.
lint:
	$(GO) run ./cmd/tulint -timing -budget 60 ./...

# lint-json writes the machine-readable report (archived by CI for trend
# inspection) plus the human-readable per-analyzer timing report next to
# it, and still fails on findings.
lint-json:
	$(GO) run ./cmd/tulint -json -timing -budget 60 ./... 2> tulint-timing.txt | tee tulint.json > /dev/null

# bench-parallel measures the parallel query / striped append speedups.
bench-parallel:
	$(GO) test -bench='QueryParallel|AppendFastParallel' -run='^$$' -benchtime=3x .
