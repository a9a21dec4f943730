//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts mean nothing under it.

package index

import "testing"

// TestSelectAllocs pins Select's own allocations on the TSBS query to the
// returned slice plus at most one more. The trie's Get copies the tail of
// every key it reaches (trie.readTail), and the trie stays as it is, so
// those copies are measured apart and not counted against Select.
func TestSelectAllocs(t *testing.T) {
	ix := tsbsIndex(t)
	var keys [][]byte
	for _, m := range tsbsQuery {
		for _, v := range m.SetMatches() {
			keys = append(keys, appendKey(nil, m.Name, v))
		}
	}
	trieAllocs := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			ix.trie.Get(k)
		}
	})
	selectAllocs := testing.AllocsPerRun(100, func() {
		if _, err := ix.Select(tsbsQuery...); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Select %.0f allocs, %.0f of them in %d trie lookups", selectAllocs, trieAllocs, len(keys))
	if own := selectAllocs - trieAllocs; own > 2 {
		t.Fatalf("Select allocates %.0f times beyond its trie lookups, want <= 2", own)
	}
}
