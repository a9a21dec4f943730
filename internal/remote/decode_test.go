package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"testing/iotest"

	"timeunion/internal/labels"
)

// fastBody is a write_fast body in the benchmark's shape: one sample per
// entry, numbers written by strconv.
func fastBody(entries int) []byte {
	b := []byte(`{"entries":[`)
	for i := 0; i < entries; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, `,"samples":[{"t":`...)
		b = strconv.AppendInt(b, 1_700_000_000_000+int64(i)*10_000, 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendFloat(b, float64(i)*0.37-3, 'f', -1, 64)
		b = append(b, `}]}`...)
	}
	return append(b, `]}`...)
}

// groupBody is a write_group-by-gid body in the benchmark's shape: rounds
// rows of len(slots) values.
func groupBody(gid uint64, slots []int, rounds int) []byte {
	req := GroupWriteRequest{GID: gid, Slots: slots}
	for r := 0; r < rounds; r++ {
		req.Times = append(req.Times, 1_700_000_000_000+int64(r)*10_000)
		row := make([]float64, len(slots))
		for i := range row {
			row[i] = float64(r*len(slots)+i) * 0.25
		}
		req.Values = append(req.Values, row)
	}
	b, _ := json.Marshal(req)
	return b
}

var fastDecodeSeeds = []string{
	`{"entries":[{"id":1,"samples":[{"t":10,"v":1.5},{"t":20,"v":-2}]},{"id":2,"samples":[]}]}`,
	`{"entries":[{"samples":[{"v":1,"t":10}],"id":7}]}`,
	` {"entries" : [ { "id" : 1 , "samples" : [ { "t" : 1 , "v" : 2 } ] } ] } `,
	"\t\r\n{\"entries\":[]}\n",
	`{"entries":[{"ID":1,"samples":[{"t":1,"v":1}]}]}`,
	`{"Entries":[{"id":1,"samples":[{"T":1,"V":1}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":1}]}]}`,
	`{"entries":null}`,
	`{"entries":[null,{"id":1,"samples":null}]}`,
	`{"entries":[{"id":null,"samples":[{"t":null,"v":null}]}]}`,
	`null`,
	`{"entries":[{"id":1,"id":2,"samples":[{"t":1,"v":1}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"t":2,"v":1}]}]}`,
	`{"entries":[],"entries":[{"id":1,"samples":[{"t":1,"v":1}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":1}]}],"entries":[]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":1}],"samples":[{"t":2,"v":2}]}]}`,
	`{"entries":[{"id":1,"extra":true,"samples":[{"t":1,"v":1,"w":3}]}],"more":{}}`,
	`{"entries":[{"id":1e2,"samples":[{"t":1,"v":1}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1e2,"v":1}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1.0,"v":1}]}]}`,
	`{"entries":[{"id":-0,"samples":[{"t":-0,"v":-0}]}]}`,
	`{"entries":[{"id":3,"samples":[{"t":-1500,"v":-2.5e-3}]}]}`,
	`{"entries":[{"id":18446744073709551615,"samples":[{"t":9223372036854775807,"v":1}]}]}`,
	`{"entries":[{"id":18446744073709551616,"samples":[{"t":1,"v":1}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":-9223372036854775808,"v":1}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":9223372036854775808,"v":1}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":-9223372036854775809,"v":1}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":1e309}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":-1e309}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":1e-400}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":1.7976931348623157e308}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":4.9e-324}]}]}`,
	`{"entries":[{"id":01,"samples":[{"t":1,"v":1}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":01,"v":00.5}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":.5}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":+1,"v":+1}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":1.}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":1e}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":1E+2}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":-}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":NaN}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":"1"}]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":1}]}]}trailing garbage`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":1}]}]}{"entries":[{"id":2}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":1}]}]`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":1},]}]}`,
	`{"entries":[{"id":1,"samples":[{"t":1,"v":1}]}],}`,
	`{"entries":[{"id":1 "samples":[]}]}`,
	"{\"entries\":[{\"id\":1,\"samples\":[{\"t\":1,\"v\":1}]}\f]}",
	"\xef\xbb\xbf{\"entries\":[]}",
	`{}`,
	`{"entries":[]}`,
	`{"entries":[{}]}`,
	`{"entries":[{"id":1,"samples":[{}]}]}`,
	`[]`,
	``,
	`{"entries":[{"id":"1","samples":[]}]}`,
	`{"entries":{"id":1}}`,
}

// FuzzFastWriteDecode holds the write_fast decoder to encoding/json: the
// same samples in the same order, or the same error text. One target is
// reused across inputs, as the pool reuses it.
func FuzzFastWriteDecode(f *testing.F) {
	for _, s := range fastDecodeSeeds {
		f.Add([]byte(s))
	}
	f.Add(fastBody(3))
	var got fastWrite
	f.Fuzz(func(t *testing.T, body []byte) {
		err := got.decode(bytes.NewReader(body), int64(len(body)))
		var req FastWriteRequest
		want := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		sameError(t, "decode", err, want)
		if err != nil {
			return
		}
		var ref []fastSample
		for _, e := range req.Entries {
			for _, s := range e.Samples {
				ref = append(ref, fastSample{id: e.ID, t: s.T, v: s.V})
			}
		}
		if len(got.samples) != len(ref) {
			t.Fatalf("%d samples, encoding/json %d", len(got.samples), len(ref))
		}
		for i, s := range got.samples {
			if r := ref[i]; s.id != r.id || s.t != r.t || math.Float64bits(s.v) != math.Float64bits(r.v) {
				t.Fatalf("sample %d = %+v, encoding/json %+v", i, s, r)
			}
		}
	})
}

var groupDecodeSeeds = []string{
	`{"gid":5,"slots":[0,1],"times":[10,20],"values":[[1,2],[3.5,-4]]}`,
	`{"values":[[1]],"times":[10],"slots":[3],"gid":5}`,
	`{"gid":5,"times":[10],"values":[[1]]}`,
	`{"gid":5,"slots":[],"times":[],"values":[]}`,
	`{"gid":5,"slots":null,"times":null,"values":null}`,
	`{"gid":5,"slots":[0],"times":[1,2],"values":[[1],null]}`,
	`{"gid":5,"slots":[0],"times":[1],"values":[[null]]}`,
	`{"gid":5,"slots":[0],"times":[1,2],"values":[[1]]}`,
	`{"gid":5,"slots":[0,1],"times":[1],"values":[[1]]}`,
	`{"GID":5,"slots":[0],"times":[1],"values":[[1]]}`,
	`{"gid":5,"Slots":[0],"times":[1],"values":[[1]]}`,
	`{"gid":5,"gid":6,"times":[1],"values":[[1]]}`,
	`{"gid":5,"times":[1],"times":[2],"values":[[1]]}`,
	`{"gid":5,"times":[1],"values":[[1]],"unknown":[1,2]}`,
	`{"gid":0,"group_tags":{"host":"h"},"unique_tags":[{"f":"x"}],"times":[1],"values":[[1]]}`,
	`{"group_tags":{"host":"h"},"unique_tags":[{"f":"x"},{"f":"y"}],"times":[1],"values":[[1,2]]}`,
	`{"gid":5,"group_tags":{"host":"h"},"slots":[0],"times":[1],"values":[[1]]}`,
	`{"gid":0,"times":[],"values":[]}`,
	`{"gid":1e2,"times":[1],"values":[[1]]}`,
	`{"gid":5,"slots":[1.0],"times":[1],"values":[[1]]}`,
	`{"gid":5,"times":[1.0],"values":[[1]]}`,
	`{"gid":5,"times":[1e2],"values":[[1]]}`,
	`{"gid":-0,"times":[1],"values":[[1]]}`,
	`{"gid":5,"slots":[-0],"times":[-0],"values":[[-0]]}`,
	`{"gid":5,"slots":[-1],"times":[-1500],"values":[[-2.5e-3]]}`,
	`{"gid":18446744073709551615,"slots":[9223372036854775807,-9223372036854775808],"times":[1],"values":[[1,2]]}`,
	`{"gid":18446744073709551616,"times":[1],"values":[[1]]}`,
	`{"gid":18446744073709551617,"times":[1],"values":[[1]]}`,
	"{\"gid\":5,\"times\":[1],\"values\":[[1]]\f}",
	`{"gid":5,"slots":[0],"slots":[1],"times":[1],"values":[[1]]}`,
	`{"gid":5,"times":[1],"values":[[1]],"values":[[2]]}`,
	`{"gid":5,"slots":[9223372036854775808],"times":[1],"values":[[1]]}`,
	`{"gid":5,"times":[-9223372036854775809],"values":[[1]]}`,
	`{"gid":5,"times":[1],"values":[[1e309]]}`,
	`{"gid":5,"times":[1],"values":[[1e-400,4.9e-324,-0.0]]}`,
	`{"gid":05,"times":[1],"values":[[1]]}`,
	`{"gid":5,"times":[1],"values":[[.5]]}`,
	`{"gid":5,"times":[+1],"values":[[1]]}`,
	`{"gid":5,"times":[1],"values":[[1]]}garbage`,
	`{"gid":5,"times":[1],"values":[[1]]`,
	`{"gid":5,"times":[1,],"values":[[1]]}`,
	`{"gid":5,"times":[1],"values":[1]}`,
	`{"gid":5,"times":1,"values":[[1]]}`,
	`{"gid":5,"times":[1],"values":[[1]]}`,
	` { "gid" : 5 , "slots" : [ 0 ] , "times" : [ 1 ] , "values" : [ [ 1 ] ] } `,
	`{}`,
	`null`,
	``,
}

// FuzzGroupWriteDecode holds the write_group decoder to encoding/json: the
// same gid, slots (nil or not), times, value rows and tags, or the same
// error text. One target is reused across inputs, as the pool reuses it.
func FuzzGroupWriteDecode(f *testing.F) {
	for _, s := range groupDecodeSeeds {
		f.Add([]byte(s))
	}
	f.Add(groupBody(9, []int{0, 1, 2}, 4))
	var got groupWrite
	f.Fuzz(func(t *testing.T, body []byte) {
		err := got.decode(bytes.NewReader(body), int64(len(body)))
		var req GroupWriteRequest
		want := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		sameError(t, "decode", err, want)
		if err != nil {
			return
		}
		if got.gid != req.GID || got.hasSlots != (req.Slots != nil) || !slices.Equal(got.slots, req.Slots) || !slices.Equal(got.times, req.Times) {
			t.Fatalf("gid %d slots %v (%v) times %v, encoding/json %d %v %v",
				got.gid, got.slots, got.hasSlots, got.times, req.GID, req.Slots, req.Times)
		}
		if !reflect.DeepEqual(got.groupTags, req.GroupTags) || !reflect.DeepEqual(got.uniqueTags, req.UniqueTags) {
			t.Fatalf("tags %v %v, encoding/json %v %v", got.groupTags, got.uniqueTags, req.GroupTags, req.UniqueTags)
		}
		if len(got.ends) != len(req.Values) {
			t.Fatalf("%d rows, encoding/json %d", len(got.ends), len(req.Values))
		}
		for i, want := range req.Values {
			row := got.row(i)
			if len(row) != len(want) {
				t.Fatalf("row %d = %v, encoding/json %v", i, row, want)
			}
			for j, v := range row {
				if math.Float64bits(v) != math.Float64bits(want[j]) {
					t.Fatalf("row %d = %v, encoding/json %v", i, row, want)
				}
			}
		}
	})
}

// TestScannerDecodesBenchmarkBodies: the benchmark's body shapes, and the
// whitespace and key order JSON allows, never reach the fallback.
func TestScannerDecodesBenchmarkBodies(t *testing.T) {
	for _, body := range [][]byte{fastBody(1010), []byte(fastDecodeSeeds[0]), []byte(fastDecodeSeeds[1]), []byte(fastDecodeSeeds[2])} {
		s := scanner{b: body}
		if samples := s.fastWrite(nil); s.bad || len(samples) == 0 {
			t.Fatalf("write_fast body fell back (%d samples): %.80s", len(samples), body)
		}
	}
	for _, body := range [][]byte{groupBody(7, make([]int, 101), 10), []byte(groupDecodeSeeds[0]), []byte(groupDecodeSeeds[1])} {
		s := scanner{b: body}
		if s.groupWrite(new(groupWrite)); s.bad {
			t.Fatalf("write_group body fell back: %.80s", body)
		}
	}
}

// TestDecodeReplaysReadError: a body whose read fails part-way decodes, or
// fails with the read error, exactly as encoding/json reading the same
// stream does.
func TestDecodeReplaysReadError(t *testing.T) {
	readErr := errors.New("connection reset")
	failing := func(b []byte, n int) io.Reader {
		return io.MultiReader(iotest.OneByteReader(bytes.NewReader(b[:n])), iotest.ErrReader(readErr))
	}
	fast, group := fastBody(2), groupBody(3, []int{0}, 2)
	for n := 0; n <= len(fast); n++ {
		var got fastWrite
		var req FastWriteRequest
		sameError(t, "write_fast cut at "+strconv.Itoa(n), got.decode(failing(fast, n), -1), json.NewDecoder(failing(fast, n)).Decode(&req))
	}
	for n := 0; n <= len(group); n++ {
		var got groupWrite
		var req GroupWriteRequest
		sameError(t, "write_group cut at "+strconv.Itoa(n), got.decode(failing(group, n), int64(len(group))), json.NewDecoder(failing(group, n)).Decode(&req))
	}
}

// TestWriteRepliesMatchEncodingJSON: the write_fast and write_group replies
// are json.Marshal's bytes plus a newline, "slots":null included.
func TestWriteRepliesMatchEncodingJSON(t *testing.T) {
	h, db := newWALServer(t)
	id, err := db.Append(labels.FromStrings("m", "s"), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	gid, slots, err := db.AppendGroup(labels.FromStrings("host", "h"), []labels.Labels{labels.FromStrings("f", "x"), labels.FromStrings("f", "y")}, 1, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	cases := []struct {
		path, body string
		want       any
	}{
		{"/api/v1/write_fast", `{"entries":[{"id":` + strconv.FormatUint(id, 10) + `,"samples":[{"t":2,"v":2}]}]}`, struct{}{}},
		{"/api/v1/write_fast", `{"Entries":[]}`, struct{}{}},
		{"/api/v1/write_group", `{"gid":` + strconv.FormatUint(gid, 10) + `,"times":[],"values":[]}`, GroupWriteResponse{GID: gid}},
		{"/api/v1/write_group", `{"gid":` + strconv.FormatUint(gid, 10) + `,"slots":[],"times":[],"values":[]}`, GroupWriteResponse{GID: gid, Slots: []int{}}},
		{"/api/v1/write_group", `{"gid":` + strconv.FormatUint(gid, 10) + `,"slots":[1,0],"times":[3],"values":[[3,3]]}`, GroupWriteResponse{GID: gid, Slots: []int{1, 0}}},
		{"/api/v1/write_group", `{"group_tags":{"host":"h"},"unique_tags":[{"f":"x"},{"f":"y"}],"times":[4],"values":[[4,4]]}`, GroupWriteResponse{GID: gid, Slots: slots}},
		{"/api/v1/write_group", `{"group_tags":{"host":"h"},"slots":[9],"times":[],"values":[]}`, GroupWriteResponse{}},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader([]byte(c.body))))
		if want := marshal(c.want); rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("%s %s = %d %q, want 200 %q", c.path, c.body, rec.Code, rec.Body.String(), want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", c.path, ct)
		}
	}
}
