package chunkenc

import (
	"fmt"
	"math"

	"timeunion/internal/encoding"
)

// This file implements batch decode: a whole chunk's samples decoded in one
// pass into caller-supplied column buffers ([]int64 timestamps, []float64
// values). The hot read path prefers this over per-sample Next() calls —
// the bit-reader lives on the stack for the duration of the loop, there is
// no per-sample iterator bookkeeping, and the output columns come from a
// sync.Pool (SampleBuffer) so steady-state decoding allocates nothing.
//
// Identity with the streaming decoders is pinned by fuzz tests: for every
// payload, AppendXORSamples == draining an XORIterator, and
// AppendGroupSlotSamples == draining a GroupSlotIterator (the test-only
// streaming oracle in groupslot_test.go).

// AppendXORSamples batch-decodes an EncXOR payload, appending every sample
// to ts/vs (which must be parallel). It returns the extended slices. On a
// decode error the slices hold the samples decoded so far and must be
// considered incomplete.
func AppendXORSamples(ts []int64, vs []float64, payload []byte) ([]int64, []float64, error) {
	if len(payload) < sampleCountLen {
		return ts, vs, fmt.Errorf("chunkenc: decode XOR samples: %w", encoding.ErrShortBuffer)
	}
	total := int(payload[0])<<8 | int(payload[1])
	r := encoding.MakeBitReader(payload[sampleCountLen:])
	var (
		t, tDelta         int64
		v                 float64
		leading, trailing uint8 = 0xff, 0
	)
	for i := 0; i < total; i++ {
		switch i {
		case 0:
			t = int64(r.ReadBits(64))
			v = math.Float64frombits(r.ReadBits(64))
		case 1:
			tDelta = readVarbitInt(&r)
			t += tDelta
			v, leading, trailing = readXORValue(&r, v, leading, trailing)
		default:
			tDelta += readVarbitInt(&r)
			t += tDelta
			v, leading, trailing = readXORValue(&r, v, leading, trailing)
		}
		if err := r.Err(); err != nil {
			return ts, vs, fmt.Errorf("chunkenc: decode XOR samples: %w", err)
		}
		ts = append(ts, t)
		vs = append(vs, v)
	}
	return ts, vs, nil
}

// AppendGroupSlotSamples batch-decodes one group member's non-NULL samples
// out of the tuple's shared time column and the member's value column,
// appending to ts/vs. NULL slots are skipped; a value column shorter than
// the time column is treated as NULL-padded (a member that joined
// mid-tuple), matching the GroupSlotIterator oracle.
func AppendGroupSlotSamples(ts []int64, vs []float64, timeCol, valCol []byte) ([]int64, []float64, error) {
	if len(timeCol) < sampleCountLen {
		return ts, vs, fmt.Errorf("chunkenc: decode group slot samples: %w", encoding.ErrShortBuffer)
	}
	numT := int(timeCol[0])<<8 | int(timeCol[1])
	// A value column too short for its header only matters once a time slot
	// consults it — with zero time slots it is never read. This mirrors the
	// GroupSlotIterator oracle, which surfaces the value iterator's error at
	// the first slot, keeping batch/streaming identity exact.
	valShort := len(valCol) < sampleCountLen
	numV := 0
	var vr encoding.BitReader
	if !valShort {
		numV = int(valCol[0])<<8 | int(valCol[1])
		vr = encoding.MakeBitReader(valCol[sampleCountLen:])
	}
	tr := encoding.MakeBitReader(timeCol[sampleCountLen:])
	var (
		t, tDelta         int64
		v                 float64
		first                   = true
		leading, trailing uint8 = 0xff, 0
	)
	for i := 0; i < numT; i++ {
		switch i {
		case 0:
			t = int64(tr.ReadBits(64))
		case 1:
			tDelta = readVarbitInt(&tr)
			t += tDelta
		default:
			tDelta += readVarbitInt(&tr)
			t += tDelta
		}
		if err := tr.Err(); err != nil {
			return ts, vs, fmt.Errorf("chunkenc: decode group slot samples: %w", err)
		}
		if valShort {
			return ts, vs, fmt.Errorf("chunkenc: decode group slot samples: %w", encoding.ErrShortBuffer)
		}
		if i >= numV {
			continue // short value column: remaining slots are NULL
		}
		if !vr.ReadBit() {
			if err := vr.Err(); err != nil {
				return ts, vs, fmt.Errorf("chunkenc: decode group slot samples: %w", err)
			}
			continue // NULL slot
		}
		if first {
			v = math.Float64frombits(vr.ReadBits(64))
			first = false
		} else {
			v, leading, trailing = readXORValue(&vr, v, leading, trailing)
		}
		if err := vr.Err(); err != nil {
			return ts, vs, fmt.Errorf("chunkenc: decode group slot samples: %w", err)
		}
		ts = append(ts, t)
		vs = append(vs, v)
	}
	return ts, vs, nil
}
