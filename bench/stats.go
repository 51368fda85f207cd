package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

var errFewSamples = errors.New("too few samples")

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, which it sorts in place. It refuses a percentile with fewer than
// ten samples beyond it, so p99 needs 1000 samples and p50 needs 20.
func percentile(xs []int64, p float64) (int64, error) {
	if beyond := float64(len(xs)) * (100 - p) / 100; beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples: %w", p, len(xs), errFewSamples)
	}
	slices.Sort(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[rank-1], nil
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (exclusive,
// linear interpolation), which is how run-to-run spread is judged; its
// middle quartile is the ordinary median. One value is its own
// quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
