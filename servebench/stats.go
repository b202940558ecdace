package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 < p <= 1) of samples by the
// nearest-rank method, so p99 of 1000 samples leaves ten above it. It
// sorts samples in place and returns 0 for no samples.
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	i := int(math.Ceil(p*float64(len(samples)))) - 1
	return samples[max(0, min(i, len(samples)-1))]
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
