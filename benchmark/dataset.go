package main

import (
	"slices"
	"strconv"

	"timeunion/internal/labels"
	"timeunion/internal/remote"
	"timeunion/internal/tsbs"
)

// dataset is everything a workload's inputs are made from: the TSBS DevOps
// hosts and one random-walk value per (round, host, series). It is a pure
// function of the seed, and it doubles as the oracle the answers are
// checked against.
type dataset struct {
	hosts  []tsbs.Host
	rounds int
	// vals[r] holds round r's values, host-major: vals[r][h*seriesPerHost+s].
	vals [][]float64
}

const seriesPerHost = tsbs.SeriesPerHost

func newDataset(hosts, rounds int, seed int64) *dataset {
	ds := &dataset{hosts: tsbs.Hosts(hosts, seed), rounds: rounds, vals: make([][]float64, rounds)}
	gen := tsbs.NewGenerator(ds.hosts, 0, intervalMs, seed)
	for r := range ds.vals {
		_, state := gen.Round()
		row := make([]float64, 0, hosts*seriesPerHost)
		for _, hv := range state {
			row = append(row, hv...)
		}
		ds.vals[r] = row
	}
	return ds
}

func (ds *dataset) numSeries() int { return len(ds.hosts) * seriesPerHost }

func (ds *dataset) value(round, host, series int) float64 {
	return ds.vals[round][host*seriesPerHost+series]
}

func roundTime(round int) int64 { return int64(round) * intervalMs }

// labelsToMap renders a tag set in the wire form.
func labelsToMap(ls labels.Labels) map[string]string {
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Name] = l.Value
	}
	return m
}

// registerRequest is the slow-path write that defines one host's series,
// carrying round 0 as each series' first sample.
func (ds *dataset) registerRequest(host int) remote.WriteRequest {
	req := remote.WriteRequest{Timeseries: make([]remote.WriteSeries, seriesPerHost)}
	for s := range req.Timeseries {
		req.Timeseries[s] = remote.WriteSeries{
			Labels:  labelsToMap(ds.hosts[host].SeriesLabels(s)),
			Samples: []remote.Sample{{T: roundTime(0), V: ds.value(0, host, s)}},
		}
	}
	return req
}

func appendJSONFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'f', -1, 64)
}

// appendFastRound encodes one /api/v1/write_fast body: round r of the given
// hosts, one sample per series, in series order.
func (ds *dataset) appendFastRound(dst []byte, ids [][]uint64, hosts []int, r int) []byte {
	dst = slices.Grow(dst, len(hosts)*seriesPerHost*64) // an entry is about 50 bytes
	dst = append(dst, `{"entries":[`...)
	first := true
	for _, h := range hosts {
		for s, id := range ids[h] {
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, `{"id":`...)
			dst = strconv.AppendUint(dst, id, 10)
			dst = append(dst, `,"samples":[{"t":`...)
			dst = strconv.AppendInt(dst, roundTime(r), 10)
			dst = append(dst, `,"v":`...)
			dst = appendJSONFloat(dst, ds.value(r, h, s))
			dst = append(dst, `}]}`...)
		}
	}
	return append(dst, `]}`...)
}

// groupValue is the value a group member holds at a round once every write
// of the schedule has been applied: rewritten rounds carry the rewrite on
// the even members, which a rewrite covers (newest wins), and the first
// write on the others (a NULL in a later write does not erase an older value).
func (ds *dataset) groupValue(round, host, member int, rewritten bool) float64 {
	v := ds.value(round, host, member)
	if rewritten && member%2 == 0 {
		return v + rewriteOffset
	}
	return v
}

// appendGroupWrite encodes one fast-path /api/v1/write_group body: rounds
// [r0, r0+n) of one host group. A rewrite covers only the even slots and
// shifts every value by rewriteOffset.
func (ds *dataset) appendGroupWrite(dst []byte, gid uint64, slots []int, host, r0, n int, rewrite bool) []byte {
	dst = slices.Grow(dst, n*len(slots)*24) // a value is about 18 bytes
	dst = append(dst, `{"gid":`...)
	dst = strconv.AppendUint(dst, gid, 10)
	dst = append(dst, `,"slots":[`...)
	first := true
	for i, slot := range slots {
		if rewrite && i%2 != 0 {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = strconv.AppendInt(dst, int64(slot), 10)
	}
	dst = append(dst, `],"times":[`...)
	for r := r0; r < r0+n; r++ {
		if r > r0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, roundTime(r), 10)
	}
	dst = append(dst, `],"values":[`...)
	for r := r0; r < r0+n; r++ {
		if r > r0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		first = true
		for i := range slots {
			if rewrite && i%2 != 0 {
				continue
			}
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = appendJSONFloat(dst, ds.groupValue(r, host, i, rewrite))
		}
		dst = append(dst, ']')
	}
	return append(dst, `]}`...)
}
