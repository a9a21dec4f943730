package remote

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
)

// The fast-path write endpoints, /api/v1/write_fast and /api/v1/write_group
// by gid, decode their bodies with the scanner below instead of
// encoding/json. The body is read once into a pooled buffer and scanned
// straight into a pooled flat target, with no FastWriteRequest, no []Sample
// per entry and no reflection. The scanner accepts a strict subset of JSON:
//   - object keys spelled exactly as the struct tags, without escapes, each
//     at most once, in any order;
//   - integers for id, gid, slots and t/times, in range for their Go type;
//   - JSON numbers for v/values, parsed with strconv.ParseFloat and in range;
//   - only the four whitespace bytes JSON allows.
//
// On anything else (a case-folded or escaped key, null, an unknown or
// repeated key, 1e2 for an integer, overflow, a syntax error, write_group
// by tags) the same bytes go to json.NewDecoder(...).Decode into the
// request type. Either way the decoded request, or the error and its text,
// is exactly what encoding/json gives (FuzzFastWriteDecode,
// FuzzGroupWriteDecode), and bytes after the top-level object are ignored,
// as Decoder.Decode ignores them.

// fastWrite is a decoded write_fast body: each sample with its series ID,
// in body order.
type fastWrite struct {
	body    []byte
	samples []fastSample
}

type fastSample struct {
	id uint64
	t  int64
	v  float64
}

// groupWrite is a decoded write_group body. Round i is times[i] with the
// member values values[ends[i-1]:ends[i]] (row(i)).
type groupWrite struct {
	body     []byte
	gid      uint64
	slots    []int
	hasSlots bool // the body carried slots, so the reply echoes them, not null
	times    []int64
	values   []float64
	ends     []int
	// The tags path (gid 0); only encoding/json decodes tags.
	groupTags  map[string]string
	uniqueTags []map[string]string
}

var (
	fastWritePool  = sync.Pool{New: func() any { return new(fastWrite) }}
	groupWritePool = sync.Pool{New: func() any { return new(groupWrite) }}
)

func getFastWrite() *fastWrite { return fastWritePool.Get().(*fastWrite) }

func getGroupWrite() *groupWrite { return groupWritePool.Get().(*groupWrite) }

// putFastWrite recycles f unless one of its buffers grew past
// maxPooledLineBuf bytes.
func putFastWrite(f *fastWrite) {
	if cap(f.body) > maxPooledLineBuf || cap(f.samples) > maxPooledLineBuf/24 {
		return
	}
	fastWritePool.Put(f)
}

// putGroupWrite recycles g unless one of its buffers grew past
// maxPooledLineBuf bytes.
func putGroupWrite(g *groupWrite) {
	if cap(g.body) > maxPooledLineBuf || 8*max(cap(g.slots), cap(g.times), cap(g.values), cap(g.ends)) > maxPooledLineBuf {
		return
	}
	g.groupTags, g.uniqueTags = nil, nil
	groupWritePool.Put(g)
}

// decode reads a write_fast body of size bytes (-1 if unknown) into f.
func (f *fastWrite) decode(body io.Reader, size int64) error {
	var err error
	if f.body, err = readBody(f.body, body, size); err == nil {
		s := scanner{b: f.body}
		if f.samples = s.fastWrite(f.samples[:0]); !s.bad {
			return nil
		}
	}
	var req FastWriteRequest
	if err := decodeJSON(f.body, err, &req); err != nil {
		return err
	}
	f.samples = f.samples[:0]
	for _, e := range req.Entries {
		for _, smp := range e.Samples {
			f.samples = append(f.samples, fastSample{id: e.ID, t: smp.T, v: smp.V})
		}
	}
	return nil
}

// decode reads a write_group body of size bytes (-1 if unknown) into g.
func (g *groupWrite) decode(body io.Reader, size int64) error {
	var err error
	if g.body, err = readBody(g.body, body, size); err == nil {
		s := scanner{b: g.body}
		if s.groupWrite(g); !s.bad {
			return nil
		}
	}
	var req GroupWriteRequest
	if err := decodeJSON(g.body, err, &req); err != nil {
		return err
	}
	g.reset()
	g.gid, g.groupTags, g.uniqueTags = req.GID, req.GroupTags, req.UniqueTags
	g.slots, g.hasSlots = append(g.slots, req.Slots...), req.Slots != nil
	g.times = append(g.times, req.Times...)
	for _, row := range req.Values {
		g.values = append(g.values, row...)
		g.ends = append(g.ends, len(g.values))
	}
	return nil
}

func (g *groupWrite) reset() {
	*g = groupWrite{body: g.body, slots: g.slots[:0], times: g.times[:0], values: g.values[:0], ends: g.ends[:0]}
}

// row returns round i's values.
func (g *groupWrite) row(i int) []float64 {
	start := 0
	if i > 0 {
		start = g.ends[i-1]
	}
	return g.values[start:g.ends[i]:g.ends[i]]
}

// readBody reads body to its end into dst[:0], growing dst once up front
// when the size is known. On a read error it returns the bytes read before
// it along with the error.
func readBody(dst []byte, body io.Reader, size int64) ([]byte, error) {
	dst = dst[:0]
	if size > 0 && size <= maxPooledLineBuf {
		dst = slices.Grow(dst, int(size)+bytes.MinRead) // room for the read that returns EOF
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := body.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// decodeJSON is the fallback: encoding/json's Decode over the body bytes,
// followed by the read error, if any, where Decode would have met it.
func decodeJSON(body []byte, readErr error, v any) error {
	var r io.Reader = bytes.NewReader(body)
	if readErr != nil {
		r = io.MultiReader(r, errReader{readErr})
	}
	return json.NewDecoder(r).Decode(v)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// fastWriteReply is the write_fast response: json.Marshal(struct{}{}) and
// a newline.
var fastWriteReply = []byte("{}\n")

// appendGroupReply writes json.Marshal(GroupWriteResponse{GID: gid, Slots:
// slots}) and a newline, with "slots":null unless hasSlots.
func appendGroupReply(dst []byte, gid uint64, slots []int, hasSlots bool) []byte {
	dst = append(dst, `{"gid":`...)
	dst = strconv.AppendUint(dst, gid, 10)
	if !hasSlots {
		return append(dst, ",\"slots\":null}\n"...)
	}
	dst = append(dst, `,"slots":[`...)
	for i, s := range slots {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(s), 10)
	}
	return append(dst, "]}\n"...)
}

// scanner reads the accepted subset of JSON from b. The first byte outside
// it sets bad and moves the cursor to the end, so every later call fails
// too and the caller checks bad once, at the end.
type scanner struct {
	b   []byte
	i   int
	bad bool
}

func (s *scanner) fail() { s.bad, s.i = true, len(s.b) }

// fastWrite scans {"entries":[{"id":…,"samples":[{"t":…,"v":…},…]},…]},
// appending its samples to dst.
func (s *scanner) fastWrite(dst []fastSample) []fastSample {
	var seen uint8
	s.expect('{')
	for n := 0; s.more('}', n); n++ {
		if string(s.key()) != "entries" {
			s.fail()
		}
		s.once(&seen, 1)
		s.expect('[')
		for m := 0; s.more(']', m); m++ {
			dst = s.fastEntry(dst)
		}
	}
	return dst
}

func (s *scanner) fastEntry(dst []fastSample) []fastSample {
	var id uint64
	var seen uint8
	first := len(dst)
	s.expect('{')
	for n := 0; s.more('}', n); n++ {
		switch string(s.key()) {
		case "id":
			s.once(&seen, 1)
			id = s.readUint()
		case "samples":
			s.once(&seen, 2)
			s.expect('[')
			for m := 0; s.more(']', m); m++ {
				var smp fastSample
				smp.t, smp.v = s.sample()
				dst = append(dst, smp)
			}
		default:
			s.fail()
		}
	}
	for i := first; i < len(dst); i++ {
		dst[i].id = id // "id" may follow "samples"
	}
	return dst
}

func (s *scanner) sample() (t int64, v float64) {
	var seen uint8
	s.expect('{')
	for n := 0; s.more('}', n); n++ {
		switch string(s.key()) {
		case "t":
			s.once(&seen, 1)
			t = s.readInt()
		case "v":
			s.once(&seen, 2)
			v = s.readFloat()
		default:
			s.fail()
		}
	}
	return t, v
}

// groupWrite scans {"gid":…,"slots":[…],"times":[…],"values":[[…],…]} into
// g. A body with tags has keys outside the subset and goes to encoding/json.
func (s *scanner) groupWrite(g *groupWrite) {
	g.reset()
	var seen uint8
	s.expect('{')
	for n := 0; s.more('}', n); n++ {
		switch string(s.key()) {
		case "gid":
			s.once(&seen, 1)
			g.gid = s.readUint()
		case "slots":
			s.once(&seen, 2)
			g.hasSlots = true
			s.expect('[')
			for m := 0; s.more(']', m); m++ {
				slot := s.readInt()
				if int64(int(slot)) != slot {
					s.fail()
				}
				g.slots = append(g.slots, int(slot))
			}
		case "times":
			s.once(&seen, 4)
			s.expect('[')
			for m := 0; s.more(']', m); m++ {
				g.times = append(g.times, s.readInt())
			}
		case "values":
			s.once(&seen, 8)
			s.expect('[')
			for m := 0; s.more(']', m); m++ {
				s.expect('[')
				for k := 0; s.more(']', k); k++ {
					g.values = append(g.values, s.readFloat())
				}
				g.ends = append(g.ends, len(g.values))
			}
		default:
			s.fail()
		}
	}
}

// once fails the scan when bit is already in *seen: a repeated key is
// encoding/json's to resolve.
func (s *scanner) once(seen *uint8, bit uint8) {
	if *seen&bit != 0 {
		s.fail()
	}
	*seen |= bit
}

// skip steps over JSON whitespace.
func (s *scanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// expect consumes c after whitespace.
func (s *scanner) expect(c byte) {
	if s.skip(); s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return
	}
	s.fail()
}

// more steps through an array or object whose opening bracket has been
// consumed: it reports whether element n follows, consuming the comma
// before it when n > 0, and consumes the closing bracket end otherwise.
func (s *scanner) more(end byte, n int) bool {
	if s.skip(); s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == end:
			s.i++
			return false
		case n == 0:
			return true
		case c == ',':
			s.i++
			return true
		}
	}
	s.fail()
	return false
}

// key reads an object key and its colon. The key's bytes are returned as
// they are, so one spelled with an escape matches no field.
func (s *scanner) key() []byte {
	s.expect('"')
	j := bytes.IndexByte(s.b[s.i:], '"')
	if j < 0 {
		s.fail()
		return nil
	}
	k := s.b[s.i : s.i+j]
	s.i += j + 1
	s.expect(':')
	return k
}

// number returns the bytes of the JSON number at the cursor, following
// JSON's grammar: an optional minus, an integer without leading zeros, an
// optional fraction and an optional exponent.
func (s *scanner) number() []byte {
	s.skip()
	start := s.i
	s.accept('-')
	if !s.accept('0') && s.digits() == 0 {
		s.fail()
	}
	if s.accept('.') && s.digits() == 0 {
		s.fail()
	}
	if s.accept('e') || s.accept('E') {
		if !s.accept('+') {
			s.accept('-')
		}
		if s.digits() == 0 {
			s.fail()
		}
	}
	if s.bad {
		return nil
	}
	return s.b[start:s.i]
}

func (s *scanner) accept(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// readUint reads a JSON integer that fits a uint64.
func (s *scanner) readUint() uint64 {
	u, ok := parseUint(s.number())
	if !ok {
		s.fail()
	}
	return u
}

// readInt reads a JSON integer that fits an int64.
func (s *scanner) readInt() int64 {
	b := s.number()
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	u, ok := parseUint(b)
	switch {
	case ok && neg && u <= 1<<63:
		return int64(-u)
	case ok && !neg && u <= math.MaxInt64:
		return int64(u)
	}
	s.fail()
	return 0
}

// readFloat reads a JSON number as encoding/json does, with
// strconv.ParseFloat; a value out of range fails the scan.
func (s *scanner) readFloat() float64 {
	b := s.number()
	if s.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		s.fail()
	}
	return v
}

// parseUint parses decimal digits. A sign, fraction or exponent, or a
// value past math.MaxUint64, is not an unsigned integer.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var u uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if u > (math.MaxUint64-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	return u, true
}
