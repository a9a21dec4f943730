// Package sstable is the allochot fixture for the block codec: DEFLATE
// state is built only in a sync.Pool's New function, and the table
// iterator's Next is held to the same no-allocation rule as chunkenc's.
package sstable

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
)

type deflater struct {
	fw  *flate.Writer
	buf bytes.Buffer
}

// The pool's constructor is the one place the state may be built.
var deflaterPool = sync.Pool{New: func() any {
	d := new(deflater)
	d.fw, _ = flate.NewWriter(&d.buf, flate.DefaultCompression)
	return d
}}

var inflaterPool = sync.Pool{New: func() any { return flate.NewReader(bytes.NewReader(nil)) }}

func compress(p []byte) []byte {
	d := deflaterPool.Get().(*deflater)
	defer deflaterPool.Put(d)
	d.buf.Reset()
	d.fw.Reset(&d.buf)
	_, _ = d.fw.Write(p)
	_ = d.fw.Close()
	return append([]byte(nil), d.buf.Bytes()...)
}

func compressFresh(p []byte) []byte {
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.DefaultCompression) // want "flate.NewWriter builds compressor state per call"
	_, _ = fw.Write(p)
	_ = fw.Close()
	return buf.Bytes()
}

func inflateFresh(p []byte) ([]byte, error) {
	return io.ReadAll(flate.NewReader(bytes.NewReader(p))) // want "flate.NewReader builds compressor state per call"
}

// A pool literal does not excuse a constructor call next to it.
var strayPool = sync.Pool{New: newInflater}

func newInflater() any {
	return flate.NewReaderDict(bytes.NewReader(nil), nil) // want "flate.NewReaderDict builds compressor state per call"
}

type TableIterator struct {
	key []byte
	i   int
}

func (it *TableIterator) Next() bool {
	it.key = append(it.key[:0], byte(it.i)) // want "append inside TableIterator.Next"
	it.i++
	return it.i < 10
}
