package main

import (
	"math"
	"sort"
	"time"
)

// rank is the 1-based nearest-rank position of the q-quantile in a sample
// of n values: ⌈q·n⌉, clamped to [1, n]. The small epsilon keeps products
// such as 0.95·100 from rounding up past an exact integer.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank q-quantile of xs (0 for an empty
// sample). xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// median is the nearest-rank 0.5-quantile: the lower middle value of an
// even-sized sample.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// beyond counts the samples above the nearest-rank q-quantile of n samples.
// A reported percentile needs at least ten of them.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// minSamples is the smallest sample with ten values beyond its q-quantile.
func minSamples(q float64) int {
	n := 10
	for beyond(n, q) < 10 {
		n++
	}
	return n
}

// chunked cuts xs, in the order it was observed, into as many equal
// consecutive chunks as leave each ten samples beyond its q-quantile, and
// returns the median over the chunks of their q-quantiles, with the number
// of chunks. On a shared host a hiccup during one chunk then moves one
// chunk's figure, not the run's.
func chunked(xs []float64, q float64) (v float64, chunks int) {
	k := max(1, len(xs)/minSamples(q))
	var vs []float64
	for i := 0; i < k; i++ {
		vs = append(vs, percentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q))
	}
	return median(vs), k
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
