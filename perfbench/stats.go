package main

import (
	"math"
	"sort"
	"time"
)

// tailPct is the percentile reported as each workload's tail latency
// when the sample supports it.
const tailPct = 99.0

// tailLadder lists the percentiles tried, highest first, when the
// sample is too small for tailPct: a percentile is reported only with
// at least ten samples beyond it.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// samples is a latency sample set in nanoseconds.
type samples []int64

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// percentile returns the p-th percentile (nearest rank) of a sorted set.
func (s samples) percentile(p float64) int64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// supported reports whether a sample of n values has at least ten
// values beyond its p-th percentile.
func supported(n int, p float64) bool {
	return float64(n)*(1-p/100) >= 10
}

// tail returns the highest percentile, at most want, that the sample
// supports, and its value. A sample too small for any ladder rung
// returns the median.
func (s samples) tail(want float64) (float64, int64) {
	for _, p := range tailLadder {
		if p <= want && supported(len(s), p) {
			return p, s.percentile(p)
		}
	}
	return 50, s.percentile(50)
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func ms(ns int64) float64          { return float64(ns) / 1e6 }
func us(ns int64) float64          { return float64(ns) / 1e3 }
func secs(d time.Duration) float64 { return d.Seconds() }

// pct returns 100·a/b, or 0 when b is 0.
func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
