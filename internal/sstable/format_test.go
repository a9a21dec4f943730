package sstable

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"timeunion/internal/encoding"
)

// pinnedTable builds a deterministic table: 300 series × 6 chunks whose
// values mix a compressible run with bytes from a fixed LCG, so the table
// holds both DEFLATE and raw-marker blocks (every 7th series is pure LCG
// noise, which DEFLATE cannot shrink).
func pinnedTable(t testing.TB, compress bool) []byte {
	t.Helper()
	w := NewWriter(0)
	if !compress {
		w.DisableCompression()
	}
	lcg := uint64(0x9e3779b97f4a7c15)
	next := func() byte {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return byte(lcg >> 56)
	}
	for id := uint64(1); id <= 300; id++ {
		for c := int64(0); c < 6; c++ {
			k := encoding.MakeKey(id, c*320_000)
			v := make([]byte, 40+int(id%90))
			for i := range v {
				if id%7 == 0 || i%4 == 0 {
					v[i] = next()
				} else {
					v[i] = byte(id) ^ byte(i/8)
				}
			}
			if err := w.Add(k[:], v); err != nil {
				t.Fatal(err)
			}
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFormatPinned pins the table format byte for byte: the hashes were
// recorded from the commit before the DEFLATE state was pooled
// (flate.NewWriter per block), so a pooled compressor that carried state
// from one block into the next, or any other drift in the writer, fails
// here rather than in a stored-bytes metric.
func TestFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		name     string
		compress bool
		want     string
	}{
		{"deflate", true, pinnedDeflateSHA256},
		{"raw", false, pinnedRawSHA256},
	} {
		sum := sha256.Sum256(pinnedTable(t, tc.compress))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s table hashes to %s, want %s", tc.name, got, tc.want)
		}
	}
}

const (
	pinnedDeflateSHA256 = "c9da3e0fd98e66d00d783215e9324234cec95d5760bce664aa39ce03fdb353f4"
	pinnedRawSHA256     = "801ae13cdb37636166bb668feabd93e54b4eac6a28b1daa3506e96174d9294d5"
)
