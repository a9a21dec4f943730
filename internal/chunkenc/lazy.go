package chunkenc

// This file holds the reusable SampleIterator adapters that other layers
// (the LSM's per-chunk readers, the core series stream) compose instead of
// declaring their own Seek methods. Keeping every Seek(int64) bool
// declaration inside this package is a checked invariant: the seekcontract
// analyzer (internal/lint) rejects implementations elsewhere, which lets
// the build scope go vet's -stdmethods exemption to internal/chunkenc only.

// PeekedIterator re-emits the one sample its constructor consumed while
// probing a stream for emptiness, then delegates to the underlying
// iterator.
type PeekedIterator struct {
	it       SampleIterator
	t        int64
	v        float64
	buffered bool // t/v hold the probed sample not yet emitted
	pos      bool // t/v hold the emitted current sample
}

// NewPeekedIterator advances it once to probe for a sample. ok reports
// whether the stream was non-empty; on false the caller should consult
// it.Err() to distinguish exhaustion from failure. The returned iterator
// replays the probed sample on its first Next (or a Seek at or before its
// timestamp), so the wrapped stream is observationally untouched.
func NewPeekedIterator(it SampleIterator) (p *PeekedIterator, ok bool) {
	if !it.Next() {
		return nil, false
	}
	p = &PeekedIterator{it: it, buffered: true}
	p.t, p.v = it.At()
	return p, true
}

// Next implements SampleIterator.
func (p *PeekedIterator) Next() bool {
	if p.buffered {
		p.buffered, p.pos = false, true
		return true
	}
	if !p.it.Next() {
		return false
	}
	p.t, p.v = p.it.At()
	p.pos = true
	return true
}

// Seek implements SampleIterator.
func (p *PeekedIterator) Seek(t int64) bool {
	if (p.buffered || p.pos) && p.t >= t {
		p.buffered, p.pos = false, true
		return true
	}
	p.buffered = false
	if !p.it.Seek(t) {
		return false
	}
	p.t, p.v = p.it.At()
	p.pos = true
	return true
}

// At implements SampleIterator.
func (p *PeekedIterator) At() (int64, float64) { return p.t, p.v }

// Err implements SampleIterator.
func (p *PeekedIterator) Err() error { return p.it.Err() }
