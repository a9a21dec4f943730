package lsm

import (
	"math"
	"sort"
	"sync"

	"timeunion/internal/chunkenc"
	"timeunion/internal/encoding"
	"timeunion/internal/memtable"
	"timeunion/internal/sstable"
	"timeunion/internal/tuple"
)

// ChunkRef is one chunk returned by a query. Rank orders chunks of one
// series by recency: when two chunks contain samples for the same
// timestamp, the chunk with the higher rank holds the newer sample (paper
// §3.3: "keep the data sample from the newest SSTable"). The rank is the
// chunk's embedded sequence ID — per-series sequences increase with every
// inserted sample, so a chunk written later always carries a larger
// sequence than any chunk it overlaps, wherever the two chunks live
// (memtable, different tables, or the same table).
type ChunkRef struct {
	Key   encoding.Key
	Value []byte
	Rank  uint64
	// MinT and MaxT are the chunk's first and last sample timestamps, read
	// from the tuple envelope without decoding the payload. The streaming
	// read path uses them to skip chunks outside the query range entirely.
	MinT, MaxT int64
}

// tableScan is one retained table to read during ChunksForInto.
type tableScan struct {
	h      *tableHandle
	startT int64
}

// scanScratch pools the per-call gather bookkeeping of ChunksForInto.
type scanScratch struct {
	scans []tableScan
	mems  []*memtable.MemTable
	ahead readAhead
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// readAhead is the sstable.ReadAhead of one table scan: the blocks that
// the scan's id and the query's later ids load from the same table. It is
// a field of the pooled scanScratch, so handing it to a scan allocates
// nothing, and it does its work only when the scan misses the cache.
type readAhead struct {
	tbl    *sstable.Table
	ids    []uint64 // the id being read, then the query's later ids in order
	lastID uint64   // the table's last id
	startT int64    // the partition's minT, where every id's scan starts
	endT   int64    // maxt+1, where every id's scan ends
}

// RunEnd walks the ids in order and extends the run with each id's blocks,
// [BlockFor(id, startT), BlockFor(id, endT)], until an id is past the
// table or its first block lies past the run (a gap), or limit is reached.
func (ra *readAhead) RunEnd(i, limit int) int {
	last := i
	for _, id := range ra.ids {
		if id > ra.lastID || last >= limit {
			break
		}
		start, end := encoding.MakeKey(id, ra.startT), encoding.MakeKey(id, ra.endT)
		if ra.tbl.BlockFor(start[:]) > last+1 {
			break
		}
		last = max(last, ra.tbl.BlockFor(end[:]))
	}
	return last
}

// ChunksFor returns every chunk of the series/group id whose samples
// overlap [mint, maxt], gathered from the active memtable, the immutable
// queue, and all three levels (including L2 patches), sorted by ascending
// rank (oldest source first).
func (l *LSM) ChunksFor(id uint64, mint, maxt int64) ([]ChunkRef, error) {
	return l.ChunksForInto(nil, []uint64{id}, mint, maxt)
}

// ChunksForInto is ChunksFor of ids[0] appending into buf (which may be a
// reused backing array; it is overwritten from index 0). ids[1:] is a
// read-ahead hint: the ids the caller reads next, ascending. A table scan
// that misses the block cache fetches, with the same store read, the
// adjacent blocks those ids will load from that table (sstable.ReadAhead),
// so a query pays one read per run of missing blocks, not one per block.
// The returned ChunkRef Values are zero-copy: they alias immutable storage
// — cache-resident SSTable blocks and memtable values, both immutable after
// insert — and must be treated as read-only. The aliases stay valid for as
// long as they are referenced; overwriting buf on the next call drops them.
func (l *LSM) ChunksForInto(buf []ChunkRef, ids []uint64, mint, maxt int64) ([]ChunkRef, error) {
	if maxt == math.MaxInt64 {
		maxt--
	}
	id := ids[0]
	sc := scanScratchPool.Get().(*scanScratch)
	scans := sc.scans[:0]
	mems := sc.mems[:0]
	defer func() {
		for i := range scans {
			scans[i] = tableScan{}
		}
		for i := range mems {
			mems[i] = nil
		}
		sc.scans, sc.mems, sc.ahead = scans[:0], mems[:0], readAhead{}
		scanScratchPool.Put(sc)
	}()

	l.mu.RLock()
	mems = append(mems, l.imm...)
	mems = append(mems, l.mem)
	for _, level := range [][]*partition{l.l0, l.l1, l.l2} {
		for _, p := range level {
			if !p.overlaps(mint, maxt+1) {
				continue
			}
			// Tables whose id bounds exclude the id are not even retained:
			// no iterator, no block load, no cache lookup.
			for i, h := range p.tables {
				if h.firstID <= id && id <= h.lastID {
					h.retain()
					scans = append(scans, tableScan{h: h, startT: p.minT})
				}
				if i < len(p.patches) {
					for _, ph := range p.patches[i] {
						if ph.firstID <= id && id <= ph.lastID {
							ph.retain()
							scans = append(scans, tableScan{h: ph, startT: p.minT})
						}
					}
				}
			}
		}
	}
	l.mu.RUnlock()

	out := buf[:0]
	var firstErr error
	for _, s := range scans {
		if firstErr != nil {
			s.h.release()
			continue
		}
		start := encoding.MakeKey(id, s.startT)
		end := encoding.MakeKey(id, maxt+1)
		it := s.h.tbl.Iter(start[:], end[:])
		sc.ahead = readAhead{tbl: s.h.tbl, ids: ids, lastID: s.h.lastID, startT: s.startT, endT: maxt + 1}
		it.SetReadAhead(&sc.ahead)
		for it.Next() {
			key, err := encoding.ParseKey(it.Key())
			if err != nil {
				firstErr = err
				break
			}
			val := it.Value() // zero-copy: aliases the immutable cached block
			lo, hi, err := tuple.TimeRange(val)
			if err != nil {
				firstErr = err
				break
			}
			if hi < mint || lo > maxt {
				continue
			}
			out = append(out, ChunkRef{Key: key, Value: val, Rank: tuple.SeqOf(val), MinT: lo, MaxT: hi})
		}
		if err := it.Err(); err != nil && firstErr == nil {
			firstErr = err
		}
		it.Release()
		s.h.release()
	}
	if firstErr != nil {
		return nil, firstErr
	}

	// Memtables: chunks are not partition-bounded, so scan the whole key
	// range of the id and filter by actual sample times.
	for _, m := range mems {
		start := encoding.MakeKey(id, math.MinInt64)
		it := m.IterAt(start[:], nil)
		for it.Next() {
			key, err := encoding.ParseKey(it.Key())
			if err != nil {
				return nil, err
			}
			if key.ID() != id {
				break
			}
			val := it.Value() // zero-copy: memtable values are immutable
			lo, hi, err := tuple.TimeRange(val)
			if err != nil {
				return nil, err
			}
			if hi < mint || lo > maxt {
				continue
			}
			out = append(out, ChunkRef{Key: key, Value: val, Rank: tuple.SeqOf(val), MinT: lo, MaxT: hi})
		}
	}

	// Insertion sort by rank: chunk lists are short, and sort.Slice's
	// closure + interface conversion would allocate on every query.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Rank < out[j-1].Rank; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}

// SeriesSamples decodes and merges a rank-sorted chunk list into one sorted
// sample slice for an individual series, newer sources overriding older at
// equal timestamps, clipped to [mint, maxt].
func SeriesSamples(chunks []ChunkRef, mint, maxt int64) ([]SamplePair, error) {
	var acc []SamplePair
	for _, c := range chunks {
		_, kind, payload, err := tuple.Decode(c.Value)
		if err != nil {
			return nil, err
		}
		if kind != tuple.KindSeries {
			continue
		}
		ss, err := decodeSeries(payload)
		if err != nil {
			return nil, err
		}
		acc = mergePairs(acc, ss)
	}
	return clipPairs(acc, mint, maxt), nil
}

// SamplePair is a decoded (timestamp, value) pair.
type SamplePair struct {
	T int64
	V float64
}

func decodeSeries(payload []byte) ([]SamplePair, error) {
	ss, err := chunkenc.DecodeXORSamples(payload)
	if err != nil {
		return nil, err
	}
	out := make([]SamplePair, len(ss))
	for i, s := range ss {
		out[i] = SamplePair{T: s.T, V: s.V}
	}
	return out, nil
}

// decodeGroup expands a group tuple into per-slot non-NULL sample runs.
func decodeGroup(payload []byte) (map[uint32][]SamplePair, error) {
	g, err := chunkenc.DecodeGroupData(payload)
	if err != nil {
		return nil, err
	}
	out := map[uint32][]SamplePair{}
	for _, col := range g.Columns {
		for i, t := range g.Times {
			if i < len(col.Nulls) && !col.Nulls[i] {
				out[col.Slot] = append(out[col.Slot], SamplePair{T: t, V: col.Values[i]})
			}
		}
	}
	return out, nil
}

// GroupSamples merges group chunks into per-slot sample slices.
func GroupSamples(chunks []ChunkRef, mint, maxt int64) (map[uint32][]SamplePair, error) {
	acc := map[uint32][]SamplePair{}
	for _, c := range chunks {
		_, kind, payload, err := tuple.Decode(c.Value)
		if err != nil {
			return nil, err
		}
		if kind != tuple.KindGroup {
			continue
		}
		g, err := decodeGroup(payload)
		if err != nil {
			return nil, err
		}
		for slot, ss := range g {
			acc[slot] = mergePairs(acc[slot], ss)
		}
	}
	for slot := range acc {
		acc[slot] = clipPairs(acc[slot], mint, maxt)
		if len(acc[slot]) == 0 {
			delete(acc, slot)
		}
	}
	return acc, nil
}

// mergePairs merges two sorted runs; values from b win on equal timestamps.
func mergePairs(a, b []SamplePair) []SamplePair {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]SamplePair, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].T < b[j].T:
			out = append(out, a[i])
			i++
		case a[i].T > b[j].T:
			out = append(out, b[j])
			j++
		default:
			out = append(out, b[j])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func clipPairs(s []SamplePair, mint, maxt int64) []SamplePair {
	lo := sort.Search(len(s), func(i int) bool { return s[i].T >= mint })
	hi := sort.Search(len(s), func(i int) bool { return s[i].T > maxt })
	return s[lo:hi]
}
