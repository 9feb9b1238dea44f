package serve

import (
	"fmt"
	"math"
	"sort"

	"cross/internal/faults"
)

// ChaosConfig selects one chaos sweep: a base serving scenario run
// repeatedly across a grid of crash MTBFs. Every other fault knob
// (deadline, retries, hedging, shedding, stragglers) comes from
// Serve.Faults and is held fixed across the grid, so the sweep
// isolates the crash-rate axis — the "requests/sec at N nines" curve
// a capacity planner prices fleets against.
type ChaosConfig struct {
	Serve Config `json:"serve"`

	// MTBFGrid is the per-pod mean-time-between-crashes values to
	// sweep, in seconds; a 0 entry disables crashes (the availability
	// ceiling). Empty resolves to {0, 4H, 2H, H, H/2, H/4, H/8} for
	// horizon H, sorted healthiest-first.
	MTBFGrid []float64 `json:"mtbf_grid"`
}

// ChaosPoint is one grid cell: the crash MTBF plus the availability
// summary of the run under it.
type ChaosPoint struct {
	MTBFS        float64      `json:"mtbf_s"`
	Goodput      float64      `json:"goodput"`
	Requests     int          `json:"requests"`
	Completed    int          `json:"completed"`
	Shed         int          `json:"shed"`
	TimedOut     int          `json:"timed_out"`
	Failed       int          `json:"failed"`
	Retries      int          `json:"retries"`
	Hedges       int          `json:"hedges"`
	HedgesWon    int          `json:"hedges_won"`
	Crashes      int          `json:"crashes"`
	DowntimeFrac float64      `json:"downtime_frac"` // mean per-pod downtime / makespan
	LatencyGood  LatencyStats `json:"latency_good"`
}

// ChaosResult is the stable record of one chaos sweep: the resolved
// base config plus one point per grid cell, healthiest-first.
type ChaosResult struct {
	Config Config       `json:"config"`
	Points []ChaosPoint `json:"points"`
}

// defaultMTBFGrid spans no-crashes down to an MTBF of horizon/8 in
// factor-of-2 steps — wide enough to show the full goodput cliff.
func defaultMTBFGrid(horizonS float64) []float64 {
	return []float64{0, 4 * horizonS, 2 * horizonS, horizonS,
		horizonS / 2, horizonS / 4, horizonS / 8}
}

// Chaos runs the MTBF grid. The service-time table is priced once and
// shared across every cell (it never depends on the fault config), so
// an N-point sweep costs one pricing pass plus N event-loop runs; the
// result is deterministic because each cell is.
func Chaos(cc ChaosConfig) (*ChaosResult, error) {
	base, pt, capRate, err := prepare(cc.Serve)
	if err != nil {
		return nil, err
	}
	grid := append([]float64(nil), cc.MTBFGrid...)
	if len(grid) == 0 {
		grid = defaultMTBFGrid(base.HorizonS)
	}
	for _, m := range grid {
		if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return nil, fmt.Errorf("serve: chaos MTBF grid values must be finite and ≥ 0, got %g", m)
		}
	}
	// Healthiest-first: descending MTBF with the crash-free cell (0)
	// leading — the stable record order.
	sort.SliceStable(grid, func(i, j int) bool {
		if (grid[i] == 0) != (grid[j] == 0) {
			return grid[i] == 0
		}
		return grid[i] > grid[j]
	})

	res := &ChaosResult{Config: base}
	for _, m := range grid {
		cfg := base
		var f faults.Config
		if base.Faults != nil {
			f = *base.Faults
		}
		f.MTBFS = m
		if m > 0 {
			f.MTTRS = 0 // re-derive MTTR from this cell's MTBF unless pinned
			if base.Faults != nil && base.Faults.MTTRS > 0 {
				f.MTTRS = base.Faults.MTTRS
			}
			f.HeartbeatS = 0
			if base.Faults != nil && base.Faults.HeartbeatS > 0 {
				f.HeartbeatS = base.Faults.HeartbeatS
			}
			f = f.WithDefaults(cfg.HorizonS)
		}
		if f.IsZero() {
			cfg.Faults = nil
		} else {
			cfg.Faults = &f
		}
		r, err := runPrepared(cfg, pt, capRate)
		if err != nil {
			return nil, fmt.Errorf("serve: chaos cell MTBF %g: %w", m, err)
		}
		p := ChaosPoint{
			MTBFS:     m,
			Goodput:   r.AchievedRate,
			Requests:  r.Requests,
			Completed: r.Completed,
		}
		if av := r.Availability; av != nil {
			p.Shed, p.TimedOut, p.Failed = av.Shed, av.TimedOut, av.Failed
			p.Retries, p.Hedges, p.HedgesWon = av.Retries, av.Hedges, av.HedgesWon
			p.Crashes = av.Crashes
			p.LatencyGood = av.LatencyGood
			if r.MakespanS > 0 && len(av.PodDowntimeS) > 0 {
				var down float64
				for _, d := range av.PodDowntimeS {
					down += d
				}
				p.DowntimeFrac = down / (r.MakespanS * float64(len(av.PodDowntimeS)))
			}
		} else {
			p.LatencyGood = r.Latency
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// Summary renders the human-readable chaos table.
func (cr *ChaosResult) Summary() string {
	c := cr.Config
	out := fmt.Sprintf(
		"chaos sweep: %s ×%d pods, Set%s, offered %.1f req/s, deadline %gs, retries %d, hedge %v\n"+
			"%12s %10s %12s %10s %6s %6s %6s %8s %8s %6s %6s\n",
		c.Spec, c.Pods, c.Set, c.Rate, faultDeadline(c), faultRetries(c), faultHedge(c),
		"mtbf_s", "goodput", "p99_good_ms", "completed", "shed", "t/out", "fail", "retries", "hedgewin", "crash", "down%")
	for _, p := range cr.Points {
		mtbf := "∞"
		if p.MTBFS > 0 {
			mtbf = fmt.Sprintf("%.4g", p.MTBFS)
		}
		out += fmt.Sprintf("%12s %10.1f %12.3f %10d %6d %6d %6d %8d %8d %6d %6.1f\n",
			mtbf, p.Goodput, p.LatencyGood.P99S*1e3, p.Completed,
			p.Shed, p.TimedOut, p.Failed, p.Retries, p.HedgesWon, p.Crashes, 100*p.DowntimeFrac)
	}
	return out
}

func faultDeadline(c Config) float64 {
	if c.Faults == nil {
		return 0
	}
	return c.Faults.DeadlineS
}

func faultRetries(c Config) int {
	if c.Faults == nil {
		return 0
	}
	return c.Faults.MaxRetries
}

func faultHedge(c Config) bool {
	return c.Faults != nil && c.Faults.Hedge
}
