package serve

import (
	"fmt"
	"sort"
)

// planBisectIters is the fixed bisection depth Plan uses to find the
// highest feasible rate — fixed, not tolerance-driven, so the probe
// sequence (and therefore the record) is deterministic.
const planBisectIters = 8

// PlanConfig is one capacity-planning question: for each candidate
// fleet shape, what is the highest offered rate whose p99 latency
// stays at or below the target, and what does a request cost there?
type PlanConfig struct {
	// Base is the scenario every candidate inherits (mix, batching,
	// policy, SLO classes, faults, seed, horizon). Its own fleet
	// fields (Spec/Pods/CoresPerPod/Fleet) are ignored — each
	// candidate supplies the fleet — except as the device for the
	// default candidate ladder when Fleets is empty.
	Base Config `json:"base"`

	// Fleets is the candidate set; empty resolves to a 1/2/4/8-pod
	// ladder of the Base device.
	Fleets [][]FleetGroup `json:"fleets"`

	// TargetP99S is the SLO: p99 latency of delivered requests must
	// not exceed this many seconds.
	TargetP99S float64 `json:"target_p99_s"`
}

// PlanPoint is one candidate fleet's answer.
type PlanPoint struct {
	Fleet         []FleetGroup `json:"fleet"`
	CapacityRate  float64      `json:"capacity_rate"`   // full-batch throughput ceiling
	MaxRate       float64      `json:"max_rate"`        // highest probed rate meeting the SLO
	P99S          float64      `json:"p99_s"`           // p99 at MaxRate
	DollarPerHour float64      `json:"dollar_per_hour"` // fleet hourly price
	// RPSPerDollarHour is the planning metric: requests/sec sustained
	// at the SLO per dollar/hour of fleet — "requests/sec/dollar".
	RPSPerDollarHour float64 `json:"rps_per_dollar_hour"`
	// DollarPerMillion is the same answer in unit-cost form: dollars
	// per million requests served at MaxRate.
	DollarPerMillion float64 `json:"dollar_per_million,omitempty"`
	Feasible         bool    `json:"feasible"` // some probed rate met the SLO
}

// PlanResult is the capacity-planning record: every candidate's
// answer, sorted best-first by req/s/$ (infeasible candidates last).
type PlanResult struct {
	TargetP99S float64     `json:"target_p99_s"`
	Points     []PlanPoint `json:"points"`
}

// Plan sweeps the candidate fleets. For each candidate it prices the
// fleet once, then bisects the offered rate on (0, capacity] with a
// fixed probe count, running the full simulator at every probe; the
// highest rate whose delivered-request p99 meets the target is the
// candidate's operating point. Deterministic: probes are pure serve
// runs and the bisection sequence is fixed.
func Plan(pc PlanConfig) (*PlanResult, error) {
	if pc.TargetP99S <= 0 {
		return nil, fmt.Errorf("serve: plan needs a positive target p99, got %g", pc.TargetP99S)
	}
	fleets := pc.Fleets
	if len(fleets) == 0 {
		wd := pc.Base
		wd.Fleet = nil
		wd = wd.withDefaults()
		for _, n := range []int{1, 2, 4, 8} {
			fleets = append(fleets, []FleetGroup{{Device: wd.Spec, Cores: wd.CoresPerPod, Count: n}})
		}
	}

	res := &PlanResult{TargetP99S: pc.TargetP99S}
	for _, fleet := range fleets {
		base := pc.Base
		base.Spec, base.Pods, base.CoresPerPod = "", 0, 0
		base.Fleet = fleet
		base.Rate = 0 // resolved per probe below
		cfg, pt, capRate, err := prepare(base)
		if err != nil {
			return nil, fmt.Errorf("serve: plan fleet %v: %w", fleet, err)
		}
		probe := func(rate float64) (float64, bool, error) {
			c := cfg
			c.Rate = rate
			r, err := runPrepared(c, pt, capRate)
			if err != nil {
				return 0, false, fmt.Errorf("serve: plan fleet %v: %w", fleet, err)
			}
			return r.Latency.P99S, r.Latency.P99S <= pc.TargetP99S, nil
		}

		pt99, ok, err := probe(capRate)
		if err != nil {
			return nil, err
		}
		point := PlanPoint{
			Fleet:         cfg.Fleet, // defaults resolved ($/hr filled in)
			CapacityRate:  capRate,
			DollarPerHour: FleetDollarPerHour(cfg.Fleet),
		}
		if ok {
			point.MaxRate, point.P99S, point.Feasible = capRate, pt99, true
		} else {
			lo, hi := 0.0, capRate
			for i := 0; i < planBisectIters; i++ {
				mid := 0.5 * (lo + hi)
				p99, okm, err := probe(mid)
				if err != nil {
					return nil, err
				}
				if okm {
					lo = mid
					point.MaxRate, point.P99S, point.Feasible = mid, p99, true
				} else {
					hi = mid
				}
			}
		}
		if point.Feasible && point.DollarPerHour > 0 {
			point.RPSPerDollarHour = point.MaxRate / point.DollarPerHour
			point.DollarPerMillion = point.DollarPerHour / (point.MaxRate * 3600) * 1e6
		}
		res.Points = append(res.Points, point)
	}

	sort.SliceStable(res.Points, func(i, j int) bool {
		a, b := res.Points[i], res.Points[j]
		if a.Feasible != b.Feasible {
			return a.Feasible
		}
		return a.RPSPerDollarHour > b.RPSPerDollarHour
	})
	return res, nil
}

// Summary renders the frontier as a table, best req/s/$ first.
func (pr *PlanResult) Summary() string {
	out := fmt.Sprintf("capacity plan: p99 ≤ %.3f ms\n", pr.TargetP99S*1e3)
	for rank, p := range pr.Points {
		name := ""
		for i, g := range p.Fleet {
			if i > 0 {
				name += "+"
			}
			name += fmt.Sprintf("%s:%d:%d", g.Device, g.Cores, g.Count)
		}
		if !p.Feasible {
			out += fmt.Sprintf("  %d. %-34s infeasible at every probed rate ($%.2f/hr)\n",
				rank+1, name, p.DollarPerHour)
			continue
		}
		out += fmt.Sprintf("  %d. %-34s %8.1f req/s at p99 %.3f ms, $%.2f/hr → %.2f req/s/$hr ($%.3f/M)\n",
			rank+1, name, p.MaxRate, p.P99S*1e3, p.DollarPerHour, p.RPSPerDollarHour, p.DollarPerMillion)
	}
	return out
}
