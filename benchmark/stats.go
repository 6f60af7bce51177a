package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs must be sorted ascending.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentile is the highest of the usual percentiles that still has at
// least ten samples beyond it — the only tail a sample of this size can
// support. It returns 0 for fewer than 20 samples (nothing above the median
// qualifies).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// ladder prints a sorted latency sample's percentiles up to the highest one
// it supports, so that a reader sees where on the distribution a named tail
// metric sits and whether the sample carries it.
func ladder(sortedMs []float64) string {
	var b strings.Builder
	top := tailPercentile(len(sortedMs))
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		if p <= top || p == 50 {
			fmt.Fprintf(&b, "p%g %.4g  ", p, percentile(sortedMs, p))
		}
	}
	fmt.Fprintf(&b, "ms; p%g is the highest percentile with ten samples beyond it (n=%d)", top, len(sortedMs))
	return b.String()
}

// nsToMs converts a slice of nanosecond latencies to milliseconds.
func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
