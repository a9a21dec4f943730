package xmmap

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// growStep is how far an AppendRegion's file grows at a time.
const growStep = 64 << 10

// errClosed is returned by every operation on a closed AppendRegion.
var errClosed = errors.New("xmmap: append region is closed")

// AppendRegion is a file written by appending through a MAP_SHARED mapping
// of it: an append is a copy into the page cache, not a write(2), and the
// bytes are where write(2) would have left them, so they survive a process
// crash and are durable after Sync. The file grows by writing zeros in
// 64 KiB steps ahead of the copies, so a full disk is an error from Append,
// never a SIGBUS on a page the file does not back. The mapping never leaves
// the region: callers see offsets and lengths only.
type AppendRegion struct {
	f     *os.File
	data  []byte // the whole mapping; only data[:alloc] is backed by the file
	off   int    // bytes appended
	alloc int    // file length, a multiple of growStep
	// growFault, when set, fails every later growth step (SetGrowFault).
	growFault error
}

// CreateAppendRegion creates the file at path, which must not exist, and
// maps capacity bytes of it (rounded up to 64 KiB) for appending. The file
// stays empty until the first append.
func CreateAppendRegion(path string, capacity int) (*AppendRegion, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("xmmap: invalid append region capacity %d", capacity)
	}
	capacity = (capacity + growStep - 1) / growStep * growStep
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("xmmap: create append region: %w", err)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, capacity, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		_ = f.Close() // discard: the mmap error is what the caller needs
		return nil, fmt.Errorf("xmmap: mmap %s: %w", path, err)
	}
	return &AppendRegion{f: f, data: data}, nil
}

// Len returns the number of bytes appended.
func (r *AppendRegion) Len() int { return r.off }

// Room returns how many more bytes the mapping can take.
func (r *AppendRegion) Room() int { return len(r.data) - r.off }

// SetGrowFault makes every later growth step fail with err, as writing the
// zeros fails on a full disk; nil restores real growth. It is a test hook.
func (r *AppendRegion) SetGrowFault(err error) { r.growFault = err }

// Append copies p at the write offset, growing the file first if p would
// pass its end. p must fit in Room. Its first 8 bytes are stored before
// the rest, so a crash in the middle of the copy leaves them in place: a
// caller whose records start with a non-zero length header always finds
// that header in front of whatever else of the record reached the page.
func (r *AppendRegion) Append(p []byte) error {
	if r.data == nil {
		return errClosed
	}
	end := r.off + len(p)
	if end > len(r.data) {
		return fmt.Errorf("xmmap: append of %d bytes at %d passes the mapping's %d", len(p), r.off, len(r.data))
	}
	if end > r.alloc {
		if err := r.grow(end); err != nil {
			return err
		}
	}
	n := copy(r.data[r.off:], p[:min(len(p), 8)])
	copy(r.data[r.off+n:], p[n:])
	r.off = end
	return nil
}

// zeroStep is the source of the zeros a growth step writes.
var zeroStep [growStep]byte

// grow extends the file up to end, rounded up to a growStep, by writing
// zeros through the page cache. write(2) claims the disk space, so a full
// disk fails it here and never a copy into the mapping. The zeros also put
// the pages in the page cache, so a copy does not read its page in first,
// as the first touch of an allocated but never written extent does.
func (r *AppendRegion) grow(end int) error {
	if r.growFault != nil {
		return fmt.Errorf("xmmap: grow append region: %w", r.growFault)
	}
	to := min((end+growStep-1)/growStep*growStep, len(r.data))
	for off := r.alloc; off < to; off += growStep {
		if _, err := r.f.WriteAt(zeroStep[:], int64(off)); err != nil {
			return fmt.Errorf("xmmap: grow append region: %w", err)
		}
	}
	r.alloc = to
	return nil
}

// Sync makes the appended bytes durable: fsync writes back the pages the
// copies dirtied, like the ones write(2) dirties.
func (r *AppendRegion) Sync() error {
	if r.data == nil {
		return errClosed
	}
	if err := r.f.Sync(); err != nil {
		return fmt.Errorf("xmmap: sync append region: %w", err)
	}
	return nil
}

// Close trims the file to the appended bytes, fsyncs it, and unmaps and
// closes it, so a closed file holds its appends and nothing after them.
func (r *AppendRegion) Close() error {
	if r.data == nil {
		return errClosed
	}
	err := r.f.Truncate(int64(r.off))
	if err == nil {
		err = r.f.Sync()
	}
	if cerr := r.release(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("xmmap: close append region: %w", err)
	}
	return nil
}

// Abandon unmaps and closes the region without trimming or syncing the
// file, leaving it as a crash would: the appended bytes, then the zeros of
// the last growth step. It exists for crash-recovery tests.
func (r *AppendRegion) Abandon() error {
	if r.data == nil {
		return errClosed
	}
	return r.release()
}

// release unmaps and closes the file.
func (r *AppendRegion) release() error {
	err := syscall.Munmap(r.data)
	r.data = nil
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	return err
}
