// Package head shows rule 1: raw Region.Data() calls and raw mappings
// outside internal/xmmap are flagged regardless of how the bytes are used.
package head

import (
	"syscall"

	"fix/internal/xmmap"
)

func peek(r *xmmap.Region) byte {
	return r.Data()[0] // want "outside internal/xmmap"
}

func local(r *xmmap.Region) int {
	d := r.Data() // want "outside internal/xmmap"
	return len(d)
}

func mapOwn(fd int) error {
	b, err := syscall.Mmap(fd, 0, 4096, syscall.PROT_READ, syscall.MAP_SHARED) // want "syscall.Mmap outside internal/xmmap"
	if err != nil {
		return err
	}
	return syscall.Munmap(b) // want "syscall.Munmap outside internal/xmmap"
}
