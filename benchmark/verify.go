package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"timeunion/internal/core"
	"timeunion/internal/labels"
	"timeunion/internal/remote"
	"timeunion/internal/tsbs"
)

// sampleMarker starts every sample object in both response encodings; a
// response's sample count is how often it occurs.
var sampleMarker = []byte(`{"t":`)

func countSamples(resp []byte) int { return bytes.Count(resp, sampleMarker) }

// seriesIndex maps a result's tags back to (host, series) of the dataset.
func seriesIndex(get func(name string) string) (host, series int, err error) {
	name := get("hostname")
	host, err = strconv.Atoi(strings.TrimPrefix(name, "host_"))
	if err != nil {
		return 0, 0, fmt.Errorf("unexpected hostname %q", name)
	}
	series = tsbs.MetricIndex(get("measurement"), get("field"))
	if series < 0 {
		return 0, 0, fmt.Errorf("unknown series %s/%s", get("measurement"), get("field"))
	}
	return host, series, nil
}

// expectation is what a query must return: every (host, series) pair of the
// cross product, each with one sample per round of [r0, r1].
type expectation struct {
	hosts  []int
	series []int
	r0, r1 int
}

func (e expectation) samples() int {
	return len(e.hosts) * len(e.series) * (e.r1 - e.r0 + 1)
}

// checkCount is the cheap check every response gets.
func (e expectation) checkCount(resp []byte) error {
	if got, want := countSamples(resp), e.samples(); got != want {
		return fmt.Errorf("response holds %d samples, generator says %d", got, want)
	}
	return nil
}

// checkSeries compares decoded result series with the generator, sample by
// sample. value gives the expected value of (round, host, series).
func (e expectation) checkSeries(got []remote.QuerySeries, value func(round, host, series int) float64) error {
	want := map[[2]int]bool{}
	for _, h := range e.hosts {
		for _, s := range e.series {
			want[[2]int{h, s}] = true
		}
	}
	for _, qs := range got {
		h, s, err := seriesIndex(func(name string) string { return qs.Labels[name] })
		if err != nil {
			return err
		}
		key := [2]int{h, s}
		if !want[key] {
			return fmt.Errorf("host %d series %d: not selected, or returned twice", h, s)
		}
		delete(want, key)
		if len(qs.Samples) != e.r1-e.r0+1 {
			return fmt.Errorf("host %d series %d: %d samples, generator says %d", h, s, len(qs.Samples), e.r1-e.r0+1)
		}
		for i, p := range qs.Samples {
			r := e.r0 + i
			if p.T != roundTime(r) || p.V != value(r, h, s) {
				return fmt.Errorf("host %d series %d round %d: got (%d, %v), generator says (%d, %v)",
					h, s, r, p.T, p.V, roundTime(r), value(r, h, s))
			}
		}
	}
	if len(want) > 0 {
		return fmt.Errorf("%d selected series missing from the response", len(want))
	}
	return nil
}

// decodeStream parses an NDJSON /api/v1/query_stream response.
func decodeStream(resp []byte) ([]remote.QuerySeries, error) {
	var out []remote.QuerySeries
	sc := bufio.NewScanner(bytes.NewReader(resp))
	sc.Buffer(nil, len(resp)+1)
	for sc.Scan() {
		var line struct {
			remote.QuerySeries
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("bad NDJSON line: %w", err)
		}
		if line.Error != "" {
			return nil, fmt.Errorf("query_stream: %s", line.Error)
		}
		out = append(out, line.QuerySeries)
	}
	return out, sc.Err()
}

// decodeQuery parses a materialised /api/v1/query response.
func decodeQuery(resp []byte) ([]remote.QuerySeries, error) {
	var qr remote.QueryResponse
	if err := json.Unmarshal(resp, &qr); err != nil {
		return nil, fmt.Errorf("bad query response: %w", err)
	}
	return qr.Series, nil
}

// seriesSum is the read-back fingerprint of one series: how many samples
// and their sum, added in time order so that equal data gives equal bits.
type seriesSum struct {
	n   int
	sum float64
}

// readBack scans every series of every host straight through core and
// compares each with want (host-major). It returns how many series were
// checked and how many differ. Each entry's iterator is drained before the
// set advances and nothing of it is kept (DESIGN.md §4.10).
func readBack(db *core.DB, hosts int, want []seriesSum) (checked, bad int, err error) {
	got := make([]seriesSum, len(want))
	for h := 0; h < hosts; h++ {
		set, err := db.QuerySeriesSet(context.Background(), 0, math.MaxInt64,
			labels.MustEqual("hostname", fmt.Sprintf("host_%d", h)))
		if err != nil {
			return 0, 0, fmt.Errorf("read-back host %d: %w", h, err)
		}
		for set.Next() {
			e := set.At()
			hh, s, err := seriesIndex(e.Labels.Get)
			if err != nil || hh != h {
				return 0, 0, fmt.Errorf("read-back host %d: unexpected series %s", h, e.Labels)
			}
			g := &got[h*seriesPerHost+s]
			prev := int64(-1)
			for e.Iterator.Next() {
				t, v := e.Iterator.At()
				if t <= prev {
					return 0, 0, fmt.Errorf("read-back %s: timestamp %d after %d", e.Labels, t, prev)
				}
				prev = t
				g.n++
				g.sum += v
			}
			if err := e.Iterator.Err(); err != nil {
				return 0, 0, fmt.Errorf("read-back %s: %w", e.Labels, err)
			}
		}
		if err := set.Err(); err != nil {
			return 0, 0, fmt.Errorf("read-back host %d: %w", h, err)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			if bad < 5 {
				logf("read-back host %d series %d: got %d samples sum %v, generator says %d sum %v",
					i/seriesPerHost, i%seriesPerHost, got[i].n, got[i].sum, want[i].n, want[i].sum)
			}
			bad++
		}
	}
	return len(want), bad, nil
}
