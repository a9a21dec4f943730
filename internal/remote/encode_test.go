package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"timeunion/internal/chunkenc"
	"timeunion/internal/labels"
)

// fuzzSeries turns fuzz input into a series: names and values split on
// '|' pair up in order (a repeated name is a repeated label), and every 16
// bytes of raw are one sample's timestamp and float64 bits.
func fuzzSeries(names, values string, raw []byte) (labels.Labels, []Sample) {
	var ls labels.Labels
	if names != "" {
		ns, vs := strings.Split(names, "|"), strings.Split(values, "|")
		for i, n := range ns {
			v := ""
			if i < len(vs) {
				v = vs[i]
			}
			ls = append(ls, labels.Label{Name: n, Value: v})
		}
		ls = labels.New(ls...)
	}
	var samples []Sample
	for ; len(raw) >= 16; raw = raw[16:] {
		samples = append(samples, Sample{
			T: int64(binary.LittleEndian.Uint64(raw)),
			V: math.Float64frombits(binary.LittleEndian.Uint64(raw[8:])),
		})
	}
	return ls, samples
}

func sampleBytes(samples ...Sample) []byte {
	var raw []byte
	for _, s := range samples {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(s.T))
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(s.V))
	}
	return raw
}

// encodeJSON is encoding/json's NDJSON line for v: the reference bytes.
func encodeJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

func sameError(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: error %v, encoding/json says %v", what, got, want)
	}
}

// FuzzSeriesEncoding holds the hand-written encoder to encoding/json's bytes:
// a series written from its labels and iterator (query_stream's direct
// path), the same series written from its QuerySeries (any other cursor),
// and the /api/v1/query body must each equal what encoding/json writes, or
// fail with the same error on a non-finite value.
func FuzzSeriesEncoding(f *testing.F) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1e-9, 1e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1e22, 1e300,
		5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	var all []Sample
	for i, v := range edges {
		all = append(all, Sample{T: int64(i) * 1_000_003, V: v})
	}
	f.Add("metric|host", "cpu|h1", sampleBytes(all...))
	f.Add("metric|host", "cpu|h1", []byte(nil)) // no samples: "samples":null
	f.Add("", "", sampleBytes(Sample{T: math.MinInt64, V: 1}, Sample{T: math.MaxInt64, V: -2}))
	f.Add("a|a|b|a", "3|1|x|2", sampleBytes(Sample{T: 1, V: 1})) // repeated names
	f.Add("<tag>|&amp|q\"uote|back\\slash", "<v>|a&b|\"|\\", sampleBytes(Sample{T: -5, V: 0.5}))
	f.Add("lt<|gt>|amp&", "<|>|&", sampleBytes(Sample{T: 7, V: 8})) // one HTML character each
	f.Add("ctl\x00\x01\n\t\x1f\x7f", "\r\b\f", sampleBytes(Sample{T: 0, V: 1}))
	f.Add("bad\xff\xfeutf8|  ", "é日本\xc3|\U0001F600", sampleBytes(Sample{T: 2, V: 3}))
	f.Add("m", "nan", sampleBytes(Sample{T: 1, V: 1}, Sample{T: 2, V: math.NaN()}))
	f.Add("m", "inf", sampleBytes(Sample{T: 1, V: math.Inf(1)}))
	f.Add("m", "-inf", sampleBytes(Sample{T: 1, V: 2}, Sample{T: 3, V: 4}, Sample{T: 5, V: math.Inf(-1)}))

	f.Fuzz(func(t *testing.T, names, values string, raw []byte) {
		ls, samples := fuzzSeries(names, values, raw)
		qs := QuerySeries{Labels: map[string]string{}, Samples: samples}
		for _, l := range ls {
			qs.Labels[l.Name] = l.Value
		}
		want, wantErr := encodeJSON(qs)

		it := make([]chunkenc.Sample, len(samples))
		for i, smp := range samples {
			it[i] = chunkenc.Sample{T: smp.T, V: smp.V}
		}
		got, err := appendEntry(nil, ls, chunkenc.NewSliceIterator(it))
		sameError(t, "direct", err, wantErr)
		if err == nil && !bytes.Equal(append(got, '\n'), want) {
			t.Fatalf("direct path:\n got %s\nwant %s", got, want)
		}

		got, err = appendQuerySeries(nil, qs)
		sameError(t, "QuerySeries", err, wantErr)
		if err == nil && !bytes.Equal(append(got, '\n'), want) {
			t.Fatalf("QuerySeries path:\n got %s\nwant %s", got, want)
		}

		noLabels := QuerySeries{Samples: samples}
		for _, series := range [][]QuerySeries{nil, {}, {qs}, {qs, noLabels}} {
			want, wantErr := json.Marshal(QueryResponse{Series: series})
			got, err := appendQueryBody(nil, series)
			sameError(t, "QueryResponse", err, wantErr)
			if err == nil && !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("query body:\n got %s\nwant %s", got, want)
			}
		}
	})
}

func TestErrorLineMatchesEncodingJSON(t *testing.T) {
	for _, msg := range []string{"plain", `quote " and <html> & ctl` + "\x01", "bad utf8 \xff"} {
		want, _ := encodeJSON(struct {
			Error string `json:"error"`
		}{msg})
		if got := appendErrorLine(nil, errors.New(msg)); !bytes.Equal(got, want) {
			t.Fatalf("error line:\n got %s\nwant %s", got, want)
		}
	}
}
