package main

import (
	_ "embed"
	"encoding/json"
	"strconv"

	dv "domainvirt"
)

// golden.json holds the grid results for the default seed (42) and the
// held-out seed (7), as a run logs them on stderr. Simulated cycles are
// deterministic, so these must match bit for bit.
//
//go:embed golden.json
var goldenJSON []byte

// fig6Row is one benchmark's 1024-PMO overhead over the lowerbound, in
// percent, per scheme.
type fig6Row struct {
	Benchmark                   string
	Libmpk, MPKVirt, DomainVirt float64
}

var golden struct {
	Fig6   map[string][]fig6Row      `json:"fig6-cold"`
	Table6 map[string][]dv.Table6Row `json:"table6-warm"`
}

func init() {
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		panic("e2ebench: golden.json: " + err.Error())
	}
}

func goldenFig6(seed int64) []fig6Row {
	return golden.Fig6[strconv.FormatInt(seed, 10)]
}

func goldenTable6(seed int64) []dv.Table6Row {
	return golden.Table6[strconv.FormatInt(seed, 10)]
}

// fig6Rows flattens a Fig. 6 result with a single PMO count.
func fig6Rows(res []dv.Fig6Result) []fig6Row {
	out := make([]fig6Row, 0, len(res))
	for _, fr := range res {
		if len(fr.X) != 1 || len(fr.Libmpk) != 1 || len(fr.MPKVirt) != 1 || len(fr.DomainVirt) != 1 {
			return nil
		}
		out = append(out, fig6Row{fr.Benchmark, fr.Libmpk[0], fr.MPKVirt[0], fr.DomainVirt[0]})
	}
	return out
}

// checkFig6 checks one Fig. 6 column. With shipped values for the seed
// (want) every row must equal them; otherwise the overheads must keep
// the paper's order, libmpk >= mpkvirt >= domainvirt >= lowerbound.
// Given an earlier result of the same run (same), every row must also
// equal it. A bad row fails the four cells it is computed from.
func (r *report) checkFig6(res []dv.Fig6Result, want []fig6Row, same []dv.Fig6Result) {
	cells := len(fig6Schemes)
	rows := fig6Rows(res)
	if len(rows) != len(dv.MicroBenchmarks) {
		r.fail(int64(cells*len(dv.MicroBenchmarks)), "fig6: malformed result %+v", res)
		return
	}
	earlier := fig6Rows(same)
	for i, row := range rows {
		switch {
		case want != nil && (i >= len(want) || row != want[i]):
			r.fail(int64(cells), "fig6 %s: got %+v, shipped %+v", row.Benchmark, row, want)
		case want == nil && !(row.Libmpk >= row.MPKVirt && row.MPKVirt >= row.DomainVirt && row.DomainVirt >= 0):
			r.fail(int64(cells), "fig6 %s: overheads out of order: %+v", row.Benchmark, row)
		case same != nil && (i >= len(earlier) || row != earlier[i]):
			r.fail(int64(cells), "nondeterminism: fig6 %s: got %+v, earlier %+v", row.Benchmark, row, earlier)
		}
	}
}

// checkTable6 checks Table VI rows like checkFig6: against the shipped
// values, or else for a non-negative lowerbound overhead and a nonzero
// switch rate; and against same, an earlier (cold) result. A bad row
// fails its two cells.
func (r *report) checkTable6(rows, want, same []dv.Table6Row) {
	cells := len(table6Schemes)
	if len(rows) != len(dv.MicroBenchmarks) {
		r.fail(int64(cells*len(dv.MicroBenchmarks)), "table6: malformed result %+v", rows)
		return
	}
	for i, row := range rows {
		switch {
		case want != nil && (i >= len(want) || row != want[i]):
			r.fail(int64(cells), "table6 %s: got %+v, shipped %+v", row.Benchmark, row, want)
		case want == nil && !(row.LowerboundPct >= 0 && row.SwitchesPerSec > 0):
			r.fail(int64(cells), "table6 %s: implausible row %+v", row.Benchmark, row)
		case same != nil && (i >= len(same) || row != same[i]):
			r.fail(int64(cells), "table6 %s: got %+v, cold run gave %+v", row.Benchmark, row, same)
		}
	}
}
