package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLRUCacheOverwriteAccounting is the regression test for byte
// accounting when a key is overwritten in place: used bytes must track the
// delta in both directions and eviction must still honor capacity.
func TestLRUCacheOverwriteAccounting(t *testing.T) {
	c := NewLRUCache(100)
	c.Put("k", make([]byte, 40))
	if got := c.UsedBytes(); got != 40 {
		t.Fatalf("used after insert = %d, want 40", got)
	}
	// Grow in place.
	c.Put("k", make([]byte, 70))
	if got := c.UsedBytes(); got != 70 {
		t.Fatalf("used after grow = %d, want 70", got)
	}
	// Shrink in place.
	c.Put("k", make([]byte, 10))
	if got := c.UsedBytes(); got != 10 {
		t.Fatalf("used after shrink = %d, want 10", got)
	}
	// Growing an entry may push the total over capacity: older entries
	// evict, and the accounting stays exact.
	c.Put("other", make([]byte, 30))
	c.Put("k", make([]byte, 90))
	if _, ok := c.Get("other"); ok {
		t.Fatal("LRU entry survived an over-capacity overwrite")
	}
	if got := c.UsedBytes(); got != 90 {
		t.Fatalf("used after evicting overwrite = %d, want 90", got)
	}
}

// TestLRUCacheOversizedOverwriteDropsStale: overwriting a cached key with a
// value too large to cache must not keep serving the stale old bytes.
func TestLRUCacheOversizedOverwriteDropsStale(t *testing.T) {
	c := NewLRUCache(10)
	c.Put("k", []byte("old"))
	if _, ok := c.Get("k"); !ok {
		t.Fatal("seed value not cached")
	}
	c.Put("k", make([]byte, 11)) // larger than the whole capacity
	if d, ok := c.Get("k"); ok {
		t.Fatalf("stale value %q still served after oversized overwrite", d)
	}
	if got := c.UsedBytes(); got != 0 {
		t.Fatalf("used = %d after dropping sole entry, want 0", got)
	}
}

// TestGetOrFetchSingleflight: N concurrent misses on one key must issue
// exactly one fetch, with every caller receiving the fetched bytes.
func TestGetOrFetchSingleflight(t *testing.T) {
	c := NewLRUCache(1 << 20)
	var fetches atomic.Int64
	release := make(chan struct{})
	const callers = 16

	var wg sync.WaitGroup
	results := make([][]byte, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.GetOrFetch("seg", func() ([]byte, error) {
				fetches.Add(1)
				<-release // hold the fetch open so every caller piles up
				return []byte("payload"), nil
			})
		}(i)
	}
	// Wait until all callers are either the leader or parked on it.
	for c.SharedFetches() != callers-1 {
	}
	close(release)
	wg.Wait()

	if n := fetches.Load(); n != 1 {
		t.Fatalf("%d fetches issued, want 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], []byte("payload")) {
			t.Fatalf("caller %d got %q", i, results[i])
		}
	}
	if shared := c.SharedFetches(); shared != callers-1 {
		t.Fatalf("shared fetches = %d, want %d", shared, callers-1)
	}
	// The result landed in the cache: the next lookup is a pure hit.
	if _, ok := c.Get("seg"); !ok {
		t.Fatal("fetched segment not cached")
	}
}

// TestGetOrFetchErrorNotCached: a failed fetch is shared with waiters but
// not cached, so the next call retries.
func TestGetOrFetchErrorNotCached(t *testing.T) {
	c := NewLRUCache(1 << 20)
	var calls atomic.Int64
	boom := errors.New("transient outage")
	_, err := c.GetOrFetch("k", func() ([]byte, error) {
		calls.Add(1)
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	d, err := c.GetOrFetch("k", func() ([]byte, error) {
		calls.Add(1)
		return []byte("ok"), nil
	})
	if err != nil || string(d) != "ok" {
		t.Fatalf("retry got (%q, %v)", d, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d fetch calls, want 2 (error must not be cached)", n)
	}
}

// TestGetOrFetchManyKeys hammers distinct keys concurrently to shake out
// races between the flight table and eviction under -race.
func TestGetOrFetchManyKeys(t *testing.T) {
	c := NewLRUCache(256) // small: constant eviction pressure
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%17)
				d, err := c.GetOrFetch(key, func() ([]byte, error) {
					return []byte(key), nil
				})
				if err != nil || string(d) != key {
					t.Errorf("GetOrFetch(%s) = (%q, %v)", key, d, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPutReplacesWhileHit: a Put that replaces a cached segment races no
// concurrent GetOrFetch hit on the same key (a read-ahead may insert a
// block while another caller's fetch of it is in flight). Every hit sees
// one of the inserted segments whole. Meaningful under -race.
func TestPutReplacesWhileHit(t *testing.T) {
	c := NewLRUCache(1 << 10)
	a, b := bytes.Repeat([]byte{'a'}, 8), bytes.Repeat([]byte{'b'}, 8)
	c.Put("k", a)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			c.Put("k", [][]byte{a, b}[i%2])
		}
	}()
	for i := 0; i < 1000; i++ {
		got, err := c.GetOrFetch("k", func() ([]byte, error) { return a, nil })
		if err != nil || !(bytes.Equal(got, a) || bytes.Equal(got, b)) {
			t.Fatalf("hit %d: %q, %v", i, got, err)
		}
	}
	wg.Wait()
}

// TestContainsPeeks: Contains sees cached and in-flight keys and counts no
// hit or miss.
func TestContainsPeeks(t *testing.T) {
	c := NewLRUCache(1 << 10)
	c.Put("cached", []byte("x"))
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _ = c.GetOrFetch("flying", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("y"), nil
		})
	}()
	<-started
	hits, misses := c.HitRate()
	if !c.Contains("cached") || !c.Contains("flying") || c.Contains("absent") {
		t.Fatal("Contains misreports cached, in-flight or absent keys")
	}
	if h, m := c.HitRate(); h != hits || m != misses {
		t.Fatalf("Contains counted: hits %d→%d, misses %d→%d", hits, h, misses, m)
	}
	close(release)
}
