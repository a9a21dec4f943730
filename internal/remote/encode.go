package remote

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"

	"timeunion/internal/chunkenc"
	"timeunion/internal/labels"
)

// The query endpoints write their results with the appenders below instead
// of encoding/json: a series goes from the engine's iterator straight into
// a line buffer, with no label map, no []Sample and no reflection. The bytes
// are exactly those encoding/json writes for the same QuerySeries or
// QueryResponse (FuzzSeriesEncoding holds them to it), so clients decode
// every response as before.

// lineBufPool recycles the response buffers of the query endpoints. A
// handler owns its buffer from Get to Put; appenders only grow the slice
// they are handed and never keep it (DESIGN.md §4.10).
var lineBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxPooledLineBuf keeps one huge response from pinning its buffer in the
// pool for the life of the process.
const maxPooledLineBuf = 1 << 20

func getLineBuf() *[]byte { return lineBufPool.Get().(*[]byte) }

func putLineBuf(b *[]byte) {
	if cap(*b) > maxPooledLineBuf {
		return
	}
	*b = (*b)[:0]
	lineBufPool.Put(b)
}

// appendEntry writes one series as {"labels":{…},"samples":[…]} from its
// sorted labels and its sample iterator, draining the iterator. It matches
// encoding/json on the QuerySeries the same series would have built: a
// repeated label name keeps only its last pair, as a map assignment would,
// and a series without samples writes "samples":null.
func appendEntry(dst []byte, ls labels.Labels, it chunkenc.SampleIterator) ([]byte, error) {
	dst = append(dst, `{"labels":{`...)
	first := true
	for i, l := range ls {
		if i+1 < len(ls) && ls[i+1].Name == l.Name {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = appendString(dst, l.Name)
		dst = append(dst, ':')
		dst = appendString(dst, l.Value)
	}
	dst = append(dst, `},"samples":`...)
	n := 0
	for it.Next() {
		t, v := it.At()
		if n == 0 {
			dst = append(dst, '[')
		} else {
			dst = append(dst, ',')
		}
		n++
		var err error
		if dst, err = appendSample(dst, t, v); err != nil {
			return dst, err
		}
	}
	if err := it.Err(); err != nil {
		return dst, err
	}
	if n == 0 {
		dst = append(dst, "null}"...)
	} else {
		dst = append(dst, "]}"...)
	}
	return dst, nil
}

// appendQuerySeries writes qs exactly as encoding/json does, for cursors
// that hand over materialized series.
func appendQuerySeries(dst []byte, qs QuerySeries) ([]byte, error) {
	dst = append(dst, `{"labels":`...)
	if qs.Labels == nil {
		dst = append(dst, "null"...)
	} else {
		names := make([]string, 0, len(qs.Labels))
		for name := range qs.Labels {
			names = append(names, name)
		}
		slices.Sort(names)
		dst = append(dst, '{')
		for i, name := range names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, name)
			dst = append(dst, ':')
			dst = appendString(dst, qs.Labels[name])
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `,"samples":`...)
	if qs.Samples == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i, s := range qs.Samples {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendSample(dst, s.T, s.V); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

// appendQueryBody writes the /api/v1/query response body, {"series":[…]}
// and a newline, exactly as json.Marshal(QueryResponse{Series: series})
// plus '\n'.
func appendQueryBody(dst []byte, series []QuerySeries) ([]byte, error) {
	if series == nil {
		return append(dst, "{\"series\":null}\n"...), nil
	}
	dst = append(dst, `{"series":[`...)
	for i, qs := range series {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendQuerySeries(dst, qs); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}\n"...), nil
}

// appendErrorLine writes the stream's terminal {"error":"…"} line.
func appendErrorLine(dst []byte, err error) []byte {
	dst = append(dst, `{"error":`...)
	dst = appendString(dst, err.Error())
	return append(dst, "}\n"...)
}

// appendSample writes {"t":…,"v":…}. v follows encoding/json's float
// encoding: shortest round-trip digits, 'f' format unless |v| < 1e-6 or
// |v| >= 1e21, and NaN or ±Inf is refused with encoding/json's error.
func appendSample(dst []byte, t int64, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, t, 10)
	dst = append(dst, `,"v":`...)
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as encoding/json writes it.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return append(dst, '}'), nil
}

// appendString writes s as a JSON string with encoding/json's HTML-safe
// escaping. Printable ASCII other than the characters it escapes is copied
// directly; anything else goes through json.Marshal.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
