package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the nearest-rank q-quantile of exact samples (0 for none).
// Every latency percentile the benchmark prints comes from its own samples
// through this function, never from the program's bucketed histograms.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// tailQ is the highest percentile, capped at p99, that still leaves at least
// ten samples beyond it: with n samples the nearest rank ceil(q*n) must be
// at most n-10. Below 20 samples it falls back to the median.
func tailQ(n int) float64 {
	q := math.Floor(float64(n-10)/float64(n)*1000) / 1000
	return min(max(q, 0.5), 0.99)
}

// median of a float slice (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean of durations (0 for none).
func mean(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	return sum / time.Duration(len(samples))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work reads 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
