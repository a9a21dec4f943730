package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a percentile for it to be
// reported: with fewer, one slow request moves the number.
const tailSamples = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
// It returns 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// supported lowers q, if need be, to the highest of the percentiles 50, 75,
// 90, 95 and 99 that still has tailSamples samples beyond it in a sample of
// n. It returns 0, the smallest sample, when not even the median does.
func supported(n int, q float64) float64 {
	best := 0.0
	for _, c := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
		if rank := int(math.Ceil(c * float64(n))); n-rank >= tailSamples {
			best = c
		}
	}
	return min(q, best)
}

// median returns the nearest-rank median of vs without modifying it.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// tail returns the nearest-rank q-quantile of sorted, with q lowered to the
// highest percentile the sample supports.
func tail(sorted []float64, q float64) float64 {
	return percentile(sorted, supported(len(sorted), q))
}

func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func seconds(d time.Duration) float64 { return d.Seconds() }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
