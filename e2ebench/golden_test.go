package main

import (
	"testing"

	dv "domainvirt"
)

func fig6FromRows(rows []fig6Row) []dv.Fig6Result {
	var out []dv.Fig6Result
	for _, r := range rows {
		out = append(out, dv.Fig6Result{Benchmark: r.Benchmark, X: []int{gridPMOs},
			Libmpk: []float64{r.Libmpk}, MPKVirt: []float64{r.MPKVirt}, DomainVirt: []float64{r.DomainVirt}})
	}
	return out
}

func TestGoldenShipped(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		if len(goldenFig6(seed)) != len(dv.MicroBenchmarks) || len(goldenTable6(seed)) != len(dv.MicroBenchmarks) {
			t.Errorf("seed %d: golden.json lacks a full Fig. 6 column or Table VI", seed)
		}
	}
}

func TestGoldenMismatchIsFailedOp(t *testing.T) {
	want := goldenFig6(42)
	r := newReport()
	r.checkFig6(fig6FromRows(want), want, nil)
	if r.failed != 0 {
		t.Fatalf("shipped values failed their own check: %v", r.failures)
	}

	res := fig6FromRows(want)
	res[2].MPKVirt[0] += 1e-9
	r = newReport()
	r.checkFig6(res, want, nil)
	if r.failed != int64(len(fig6Schemes)) || len(r.failures) != 1 {
		t.Errorf("one wrong Fig. 6 row: failed %d ops, %d failures", r.failed, len(r.failures))
	}

	// Without shipped values the paper's ordering is checked instead.
	res = fig6FromRows(want)
	res[0].MPKVirt[0], res[0].DomainVirt[0] = res[0].DomainVirt[0], res[0].MPKVirt[0]
	r = newReport()
	r.checkFig6(res, nil, nil)
	if r.failed != int64(len(fig6Schemes)) {
		t.Errorf("out-of-order row: failed %d ops", r.failed)
	}

	rows := append([]dv.Table6Row(nil), goldenTable6(42)...)
	rows[4].LowerboundPct *= 1.0000001
	r = newReport()
	r.checkTable6(rows, goldenTable6(42), nil)
	if r.failed != int64(len(table6Schemes)) {
		t.Errorf("one wrong Table VI row: failed %d ops", r.failed)
	}
	r = newReport()
	r.checkTable6(rows, nil, goldenTable6(42))
	if r.failed != int64(len(table6Schemes)) {
		t.Errorf("warm row differing from cold: failed %d ops", r.failed)
	}
}
