package main

import (
	"math"
	"sort"
	"time"
)

// quantile is one order statistic of a sample, carried with the sample
// count it was taken from so that a reader can judge how many samples
// lie beyond it.
type quantile struct {
	Value time.Duration
	N     int
}

// percentile returns the p-th percentile (0 <= p <= 100) of samples,
// which it sorts in place, interpolating linearly between the two nearest
// ranks (numpy's default estimator). An empty sample yields N == 0.
func percentile(samples []time.Duration, p float64) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pos := math.Max(0, math.Min(1, p/100)) * float64(n-1)
	lo := int(pos)
	v := samples[lo]
	if lo+1 < n {
		v += time.Duration((pos - float64(lo)) * float64(samples[lo+1]-samples[lo]))
	}
	return quantile{Value: v, N: n}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs.
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
