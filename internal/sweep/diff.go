package sweep

import "cross/internal/gate"

// Diffing turns the sweep into a perf-regression oracle: CI runs a
// fresh sweep, diffs it against the committed BENCH_baseline.json, and
// fails when any modeled latency regressed beyond the threshold
// (DESIGN.md §9).

// Gated metrics.
const (
	MetricTotal      = "total_s"
	MetricOverlapped = "overlapped_s"
)

// Diff compares two sweeps record by record (matched on ID) and
// classifies total_s and overlapped_s against the fractional threshold
// (0.005 = 0.5%) under gate's relative policy. A record whose
// overlapped_s is 0 does not carry the column (a baseline predating
// it), so a column on one side only is metric-level coverage drift,
// never a zero-baseline regression or a silent skip.
func Diff(old, new []Record, threshold float64) (gate.Result, error) {
	p := gate.Policy{Kind: gate.Relative, Threshold: threshold}
	metrics := []gate.Metric{
		{Name: MetricTotal, Unit: "s", Policy: p},
		{Name: MetricOverlapped, Unit: "s", Policy: p},
	}
	return gate.Diff("sweep", metrics, gateRecords(old), gateRecords(new))
}

func gateRecords(recs []Record) []gate.Record {
	out := make([]gate.Record, len(recs))
	for i, r := range recs {
		v := map[string]float64{MetricTotal: r.TotalS}
		if r.OverlappedS != 0 {
			v[MetricOverlapped] = r.OverlappedS
		}
		out[i] = gate.Record{ID: r.ID, Values: v}
	}
	return out
}
