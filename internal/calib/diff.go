package calib

import (
	"math"

	"cross/internal/gate"
)

// metricAbsErr is the gated |RelErrFitted| of every record.
const metricAbsErr = "abs_rel_err_fitted"

// Diff compares two calibration reports through the gate. Records match
// on ID and classify by the absolute drift of |RelErrFitted| against
// the threshold. Each spec's fitted constants become a "fit/<spec>"
// record whose constants classify by relative change in either
// direction (a constant has no better direction), with the gate's
// zero-baseline rule. Published sources are deterministic, so their
// regressions fail the gate; host records and the host spec's
// constants are measured on whatever machine runs the gate, so theirs
// are warnings. Environment mismatches are warnings too.
func Diff(old, new *Report, threshold float64) (gate.Result, error) {
	constant := gate.Policy{Kind: gate.Relative, Threshold: threshold, TwoSided: true}
	metrics := []gate.Metric{
		{Name: metricAbsErr, Policy: gate.Policy{Kind: gate.Absolute, Threshold: threshold}},
		{Name: "launch_overhead_s", Unit: "s", Policy: constant},
		{Name: "hbm_fraction", Policy: constant},
		{Name: "vmem_fraction", Policy: constant},
		{Name: "ntt_efficiency", Policy: constant},
	}
	res, err := gate.Diff("calib", metrics, gateRecords(old), gateRecords(new))
	if err != nil {
		return gate.Result{}, err
	}
	res.EnvWarnings = old.Env.Mismatches(new.Env)
	return res, nil
}

func gateRecords(r *Report) []gate.Record {
	out := make([]gate.Record, 0, len(r.Records)+len(r.Fits))
	for _, rec := range r.Records {
		out = append(out, gate.Record{
			ID:       rec.ID,
			Values:   map[string]float64{metricAbsErr: math.Abs(rec.RelErrFitted)},
			WarnOnly: rec.Source == SourceHost,
		})
	}
	for _, f := range r.Fits {
		c := f.Fitted
		out = append(out, gate.Record{
			ID: "fit/" + f.Spec,
			Values: map[string]float64{
				"launch_overhead_s": c.LaunchOverhead,
				"hbm_fraction":      c.HBMFraction,
				"vmem_fraction":     c.VMEMFraction,
				"ntt_efficiency":    c.NTTEfficiency,
			},
			WarnOnly: f.Source == SourceHost,
		})
	}
	return out
}
