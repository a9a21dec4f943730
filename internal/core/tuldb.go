package core

import (
	"math"

	"timeunion/internal/encoding"
	"timeunion/internal/goleveldb"
	"timeunion/internal/lsm"
	"timeunion/internal/tuple"
)

// NewTULDBStore builds the TU-LDB baseline's chunk store (paper §4.1):
// TimeUnion's head and key format on top of a classic LevelDB-style leveled
// LSM, with the first two levels on the fast store and the rest on the slow
// store. It exists to demonstrate what the time-partitioned tree buys: the
// classic tree re-reads and re-merges overlapping SSTables on the slow tier
// and scatters recent data across un-compacted top levels.
func NewTULDBStore(opts goleveldb.Options) (ChunkStore, error) {
	if opts.MergeValues == nil {
		opts.MergeValues = tupleMergeBySeq
	}
	db, err := goleveldb.Open(opts)
	if err != nil {
		return nil, err
	}
	return &ldbChunkStore{db: db}, nil
}

func tupleMergeBySeq(older, newer []byte) ([]byte, error) {
	if tuple.SeqOf(older) <= tuple.SeqOf(newer) {
		return tuple.Merge(older, newer)
	}
	return tuple.Merge(newer, older)
}

// ldbChunkStore adapts goleveldb.DB to the ChunkStore interface.
type ldbChunkStore struct {
	db *goleveldb.DB
}

// LDB exposes the underlying tree (benchmark instrumentation).
func (s *ldbChunkStore) LDB() *goleveldb.DB { return s.db }

// Put implements ChunkStore.
func (s *ldbChunkStore) Put(key encoding.Key, value []byte) error {
	return s.db.Put(key[:], value)
}

// ChunksForInto implements ChunkStore for ids[0], appending into buf
// (overwritten from index 0). The read-ahead hint ids[1:] is ignored.
func (s *ldbChunkStore) ChunksForInto(buf []lsm.ChunkRef, ids []uint64, mint, maxt int64) ([]lsm.ChunkRef, error) {
	id := ids[0]
	start := encoding.MakeKey(id, math.MinInt64)
	var end []byte
	if id != math.MaxUint64 {
		e := encoding.MakeKey(id+1, math.MinInt64)
		end = e[:]
	}
	entries, err := s.db.Scan(start[:], end)
	if err != nil {
		return nil, err
	}
	out := buf[:0]
	for _, e := range entries {
		key, err := encoding.ParseKey(e.Key)
		if err != nil {
			return nil, err
		}
		lo, hi, err := tuple.TimeRange(e.Value)
		if err != nil {
			return nil, err
		}
		if hi < mint || lo > maxt {
			continue
		}
		out = append(out, lsm.ChunkRef{Key: key, Value: e.Value, Rank: tuple.SeqOf(e.Value), MinT: lo, MaxT: hi})
	}
	// Entries arrive key-sorted; re-rank by embedded sequence like the
	// time-partitioned tree does.
	sortChunkRefs(out)
	return out, nil
}

func sortChunkRefs(refs []lsm.ChunkRef) {
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && refs[j].Rank < refs[j-1].Rank; j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
}

// Flush implements ChunkStore.
func (s *ldbChunkStore) Flush() error { return s.db.Flush() }

// ApplyRetention is a no-op: a size-leveled LSM has no time partitions to
// drop, which is precisely the retention weakness the paper's design
// addresses (§3.3).
func (s *ldbChunkStore) ApplyRetention(watermark int64) int { return 0 }

// Close implements ChunkStore.
func (s *ldbChunkStore) Close() error { return s.db.Close() }
