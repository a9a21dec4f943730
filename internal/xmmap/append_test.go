package xmmap

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestAppendRegionGrowsAndTrims: the file grows in 64 KiB steps ahead of
// the appends, reads back what was appended, and Close trims it to the
// appended bytes.
func TestAppendRegionGrowsAndTrims(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	r, err := CreateAppendRegion(path, 3*growStep-100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Room() != 3*growStep {
		t.Fatalf("Room = %d, want the capacity rounded up to %d", r.Room(), 3*growStep)
	}
	if got := fileSize(t, path); got != 0 {
		t.Fatalf("new region's file holds %d bytes, want 0", got)
	}
	var want []byte
	for i, n := range []int{10, growStep - 10, 1, growStep + 5} {
		p := bytes.Repeat([]byte{byte(i + 1)}, n)
		if err := r.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p...)
		alloc := int64((len(want) + growStep - 1) / growStep * growStep)
		if got := fileSize(t, path); got != alloc {
			t.Fatalf("after %d bytes the file holds %d, want %d", len(want), got, alloc)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data[:len(want)], want) || !bytes.Equal(data[len(want):], make([]byte, len(data)-len(want))) {
			t.Fatalf("after %d bytes the file does not hold the appends and then zeros", len(want))
		}
	}
	if r.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(want))
	}
	if err := r.Append(make([]byte, r.Room()+1)); err == nil {
		t.Fatal("append past the mapping succeeded")
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("closed file holds %d bytes, want exactly the %d appended", len(data), len(want))
	}
	for name, op := range map[string]func() error{
		"Append":  func() error { return r.Append([]byte{1}) },
		"Sync":    r.Sync,
		"Close":   r.Close,
		"Abandon": r.Abandon,
	} {
		if err := op(); !errors.Is(err, errClosed) {
			t.Errorf("%s on a closed region: %v, want %v", name, err, errClosed)
		}
	}
	if _, err := CreateAppendRegion(path, growStep); err == nil {
		t.Fatal("created a region over an existing file")
	}
}

// TestAppendRegionAbandonKeepsZeroTail: Abandon leaves the file as a crash
// would, the appended bytes followed by the zeros of the last growth step.
func TestAppendRegionAbandonKeepsZeroTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	r, err := CreateAppendRegion(path, growStep)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Append([]byte("logged")); err != nil {
		t.Fatal(err)
	}
	if err := r.Abandon(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != growStep || string(data[:6]) != "logged" || !bytes.Equal(data[6:], make([]byte, growStep-6)) {
		t.Fatalf("abandoned file: %d bytes starting %q, want %d: the append, then zeros", len(data), data[:min(len(data), 6)], growStep)
	}
}

// TestAppendRegionGrowFault: a failed growth step is an error from Append
// that appends nothing; the region appends again once growth succeeds.
func TestAppendRegionGrowFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	r, err := CreateAppendRegion(path, 2*growStep)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Append(make([]byte, growStep)); err != nil {
		t.Fatal(err)
	}
	full := errors.New("disk full")
	r.SetGrowFault(full)
	if err := r.Append([]byte{1}); !errors.Is(err, full) {
		t.Fatalf("append needing growth: %v, want %v", err, full)
	}
	if r.Len() != growStep || fileSize(t, path) != growStep {
		t.Fatalf("failed append moved the region: Len %d, file %d", r.Len(), fileSize(t, path))
	}
	r.SetGrowFault(nil)
	if err := r.Append([]byte{1}); err != nil {
		t.Fatal(err)
	}
}
