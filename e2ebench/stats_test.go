package main

import (
	"testing"
	"time"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	var xs []time.Duration
	for i := 200; i >= 1; i-- {
		xs = append(xs, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 100}, {99, 198}, {100, 200}, {0.1, 1}} {
		q := percentile(xs, c.p)
		if q.N != 200 || q.Value != c.want {
			t.Errorf("p%v = %v from %d samples, want %v from 200", c.p, q.Value, q.N, c.want)
		}
	}
	if q := percentile(nil, 50); q.N != 0 || q.Value != 0 {
		t.Errorf("empty sample: %+v", q)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
}
