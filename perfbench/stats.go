package main

import (
	"math"
	"regexp"
	"sort"
)

// tailLadder lists the percentiles a latency tail may be reported at,
// highest first. The reported tail is the highest one that leaves at
// least minBeyond samples above it, so a small sample never claims a
// p99 it cannot support.
var tailLadder = []float64{0.99, 0.98, 0.975, 0.95, 0.9, 0.75, 0.5}

const minBeyond = 10

// summary is a latency (or staleness) distribution reduced to the
// numbers the benchmark reports. Failed operations enter as +Inf, so
// they count as missing any latency limit.
type summary struct {
	N     int
	P50   float64
	P90   float64
	TailQ float64 // percentile the tail was taken at (0.99 when N >= 1000)
	Tail  float64
	Max   float64
}

// summarize applies the percentile rule to xs (which it does not
// modify). With fewer samples than any ladder step supports, the tail
// is the maximum and TailQ is 1.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50, _ = nearestRank(sorted, 0.5)
	s.P90, _ = nearestRank(sorted, 0.9)
	s.Max = sorted[len(sorted)-1]
	s.TailQ, s.Tail = 1, s.Max
	for _, q := range tailLadder {
		if v, beyond := nearestRank(sorted, q); beyond >= minBeyond {
			s.TailQ, s.Tail = q, v
			break
		}
	}
	return s
}

// nearestRank returns the q-quantile of sorted by the nearest-rank
// method and the number of samples strictly after that rank.
func nearestRank(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], n - k
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s may name a metric or workload: it starts
// with a letter or digit and has at most 64 letters, digits, '_', '.'
// and '-'.
func validName(s string) bool { return metricName.MatchString(s) }
