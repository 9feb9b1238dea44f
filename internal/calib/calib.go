// Package calib is the reproduction's ground-truth calibration
// harness (DESIGN.md §15): it pairs every measurable kernel latency
// with the simulator's prediction for the same work, fits the model's
// free constants (tpusim.Calibration) by deterministic least squares,
// and emits the committable BENCH_calib.json report that CI diffs —
// so the roofline model's error against ground truth is a gated,
// versioned number instead of folklore.
//
// Three measurement sources, one fit procedure per spec:
//
//   - host: internal/hostbench times the real Go kernels at several
//     degrees on the CI machine; predictions price the same kernels
//     through cross.PredictKernel on the synthetic HostSpec.
//   - published TPU: the paper's measured Tab. VII NTT throughputs and
//     Tab. IX bootstrap latencies (internal/refdata), predicted with
//     the exact harness methodology (BestNTTBatch × VM cores;
//     LowerBootstrapHoisted amortized over the VM).
//   - published GPU: WarpDrive's A100 NTT row, predicted on the
//     gpusim backend. (H100 has no published NTT figure in refdata,
//     so it keeps default constants.)
package calib

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"cross/internal/cross"
	"cross/internal/gpusim"
	"cross/internal/hostbench"
	"cross/internal/modarith"
	"cross/internal/refdata"
	"cross/internal/tpusim"
)

// Measurement sources.
const (
	SourceHost      = "host"      // timed on this machine (noisy, warning-gated)
	SourcePublished = "published" // quoted from the paper (deterministic, hard-gated)
)

// Config controls a calibration run.
type Config struct {
	// Sizes are the polynomial degrees the host kernels are measured
	// at (default 4096, 8192, 16384 — the paper's Tab. VII degrees).
	Sizes []int `json:"sizes"`
	// Repeats is the number of raw timing samples per host point
	// (default 5); the minimum is the fitted estimate.
	Repeats int `json:"repeats"`
	// Parallel is the fitter's worker count (default 1). Any value
	// produces bit-identical results; more workers are just faster.
	Parallel int `json:"-"`
}

func (c Config) withDefaults() Config {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{4096, 8192, 16384}
	}
	if c.Repeats < 1 {
		c.Repeats = hostbench.DefaultRepeats
	}
	if c.Parallel < 1 {
		c.Parallel = 1
	}
	return c
}

// Record is one calibration point: a kernel's measured ground-truth
// latency against the model's prediction under default and fitted
// constants.
type Record struct {
	// ID is "<spec>/<kernel-id>" ("TPUv4/ntt_throughput/N4096").
	ID     string `json:"id"`
	Spec   string `json:"spec"`
	Source string `json:"source"`
	Kernel string `json:"kernel"`
	N      int    `json:"n"`
	// Samples are the raw per-repeat timings of host points (ns).
	Samples []float64 `json:"samples_ns,omitempty"`
	// MeasuredNs is the ground truth the fit targets (best-of-samples
	// for host points, the published figure otherwise).
	MeasuredNs float64 `json:"measured_ns"`
	// PredictedNs is the model under default (hand-picked) constants;
	// FittedNs under the fitted ones.
	PredictedNs float64 `json:"predicted_ns"`
	FittedNs    float64 `json:"fitted_ns"`
	// RelErr is PredictedNs/MeasuredNs − 1; RelErrFitted the same for
	// FittedNs. RelErrFitted is the number the CI gate tracks.
	RelErr       float64 `json:"rel_err"`
	RelErrFitted float64 `json:"rel_err_fitted"`
}

// SpecFit is one spec's fitted constants with before/after error.
type SpecFit struct {
	Spec     string             `json:"spec"`
	Source   string             `json:"source"`
	Points   int                `json:"points"`
	Mask     FitMask            `json:"mask"`
	Defaults tpusim.Calibration `json:"defaults"`
	Fitted   tpusim.Calibration `json:"fitted"`
	// RMSRelErr is the root-mean-square relative error
	// √(Σ ((pred−meas)/meas)² / points) — the metric the fit minimises,
	// so After ≤ Before always holds: fitted constants never model
	// worse than the hand-picked defaults.
	RMSRelErrBefore float64 `json:"rms_rel_err_before"`
	RMSRelErrAfter  float64 `json:"rms_rel_err_after"`
	// Mean |rel err| across the spec's points, as information: unlike
	// the RMS relative error it is not the fitted objective, so it can
	// occasionally move the other way.
	MeanAbsRelErrBefore float64 `json:"mean_abs_rel_err_before"`
	MeanAbsRelErrAfter  float64 `json:"mean_abs_rel_err_after"`
	ObjBefore           float64 `json:"objective_before"`
	ObjAfter            float64 `json:"objective_after"`
}

// Report is the committable BENCH_calib.json content: every record,
// every spec's fit, and the environment the host points were measured
// on. Field and slice orders are deterministic.
type Report struct {
	Env     hostbench.Environment `json:"env"`
	Sizes   []int                 `json:"sizes"`
	Repeats int                   `json:"repeats"`
	Records []Record              `json:"records"`
	Fits    []SpecFit             `json:"fits"`
	// RMSRelErr across ALL records under default vs fitted constants —
	// the headline "fitting helped" number; After ≤ Before by
	// construction (each spec's fit minimises exactly this).
	RMSRelErrBefore float64 `json:"rms_rel_err_before"`
	RMSRelErrAfter  float64 `json:"rms_rel_err_after"`
	// Mean |rel err| across all records (informational).
	MeanAbsRelErrBefore float64 `json:"mean_abs_rel_err_before"`
	MeanAbsRelErrAfter  float64 `json:"mean_abs_rel_err_after"`
}

// point is one measured latency awaiting prediction.
type point struct {
	kernel  string
	id      string // kernel-id within the spec ("ntt_throughput/N4096")
	n       int
	meas    float64 // ns
	samples []float64
}

// group binds one spec's points to a calibrated predictor.
type group struct {
	spec     string
	source   string
	mask     FitMask
	defaults tpusim.Calibration
	points   []point
	// predict prices every point (ns, same order) under a candidate
	// calibration; it must be safe for concurrent calls.
	predict func(tpusim.Calibration) ([]float64, error)
}

// hostParams builds the compiler parameter set matching one hostbench
// degree: two 28-bit limbs, no decomposition, the paper's standalone
// 128×(N/128) MAT split.
func hostParams(n int) cross.Params {
	return cross.Params{
		LogN: bits.Len(uint(n)) - 1, LogQ: 28, L: 2, Dnum: 1,
		R: 128, C: n / 128, Red: modarith.Montgomery,
	}
}

// hostGroup measures the Go kernels and pairs them with PredictKernel
// on the synthetic host spec.
func hostGroup(cfg Config) (group, error) {
	samples, err := hostbench.Measure(cfg.Sizes, cfg.Repeats)
	if err != nil {
		return group{}, err
	}
	spec := HostSpec()
	g := group{
		spec:     spec.Name,
		source:   SourceHost,
		mask:     AllConstants(),
		defaults: tpusim.Calibration{}.Resolve(spec),
	}
	for _, s := range samples {
		g.points = append(g.points, point{
			kernel: s.Kernel, id: s.ID, n: s.N,
			meas: s.Best(), samples: s.Ns,
		})
	}
	points := g.points
	g.predict = func(cal tpusim.Calibration) ([]float64, error) {
		comps := make(map[int]*cross.Compiler, len(cfg.Sizes))
		out := make([]float64, len(points))
		for i, pt := range points {
			c, ok := comps[pt.n]
			if !ok {
				var err error
				c, err = cross.Compile(tpusim.NewDevice(spec.WithCalibration(cal)), hostParams(pt.n))
				if err != nil {
					return nil, err
				}
				comps[pt.n] = c
			}
			s, err := c.PredictKernel(pt.kernel)
			if err != nil {
				return nil, err
			}
			out[i] = s.Total * 1e9
		}
		return out, nil
	}
	return g, nil
}

// tpuSets are the Tab. VII parameter sets for N = 2^12, 2^13, 2^14.
var tpuSets = func() []cross.Params {
	return []cross.Params{cross.SetA(), cross.SetB(), cross.SetC()}
}

// tpuGroup pairs one TPU generation's published Tab. VII/IX figures
// with the harness's own prediction methodology: NTT throughput at the
// best batch ≤ 128 scaled by the VM's core count (harness.TableVII),
// and the hoisted bootstrap amortized over the VM (harness.TableIX).
func tpuGroup(vm tpusim.VM) group {
	spec := vm.Spec
	knt := refdata.PaperNTTTPU[spec.Name]
	g := group{
		spec:     spec.Name,
		source:   SourcePublished,
		mask:     AllConstants(), // 4 points determine 4 constants
		defaults: tpusim.Calibration{}.Resolve(spec),
	}
	for i, set := range tpuSets() {
		n := 1 << set.LogN
		g.points = append(g.points, point{
			kernel: "ntt_throughput", id: fmt.Sprintf("ntt_throughput/N%d", n), n: n,
			// kNTT/s on the whole VM → ns per NTT on the VM.
			meas: 1e6 / knt[i],
		})
	}
	g.points = append(g.points, point{
		kernel: "bootstrap_amortized", id: "bootstrap_amortized/SetD", n: 1 << 16,
		meas: refdata.PaperBootstrapTPU[spec.Name] * 1e6,
	})
	g.predict = func(cal tpusim.Calibration) ([]float64, error) {
		calSpec := spec.WithCalibration(cal)
		out := make([]float64, 0, 4)
		for _, set := range tpuSets() {
			c, err := cross.Compile(tpusim.NewDevice(calSpec), set)
			if err != nil {
				return nil, err
			}
			_, thr := c.BestNTTBatch(128)
			out = append(out, 1e9/(thr*float64(vm.Cores)))
		}
		c, err := cross.Compile(tpusim.NewDevice(calSpec), cross.SetD())
		if err != nil {
			return nil, err
		}
		sched := cross.DefaultBootstrapSchedule(cross.SetD())
		lat := c.LowerBootstrapHoisted(sched, 8).Total
		out = append(out, vm.AmortizedLatency(lat)*1e9)
		return out, nil
	}
	return g
}

// gpuGroup pairs the A100 against WarpDrive's published NTT row — the
// faster of the two published A100 rows, i.e. the one closer to the
// hardware limit the roofline models. Three points fit three constants
// (launch, HBM, NTT efficiency); the VMEM fraction keeps its default.
func gpuGroup() group {
	spec := gpusim.A100_40GB()
	var wd refdata.NTTBaseline
	for _, b := range refdata.NTTBaselines() {
		if b.Name == "WarpDrive" {
			wd = b
		}
	}
	g := group{
		spec:     spec.Name,
		source:   SourcePublished,
		mask:     FitMask{Launch: true, HBM: true, NTT: true},
		defaults: tpusim.Calibration{}.Resolve(spec.CoreSpec()),
	}
	for i, set := range tpuSets() {
		n := 1 << set.LogN
		g.points = append(g.points, point{
			kernel: "ntt_throughput", id: fmt.Sprintf("ntt_throughput/N%d", n), n: n,
			meas: 1e6 / wd.KNTTs[i], // one A100
		})
	}
	g.predict = func(cal tpusim.Calibration) ([]float64, error) {
		out := make([]float64, 0, 3)
		for _, set := range tpuSets() {
			c, err := cross.Compile(gpusim.NewDevice(spec.WithCalibration(cal)), set)
			if err != nil {
				return nil, err
			}
			_, thr := c.BestNTTBatch(128)
			out = append(out, 1e9/thr)
		}
		return out, nil
	}
	return g
}

// Run measures, predicts, and fits every spec, returning the full
// report. Published-source content is deterministic; host records
// carry real timings and vary with the machine (the gate treats them
// as warnings, Diff).
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()

	hg, err := hostGroup(cfg)
	if err != nil {
		return nil, err
	}
	groups := []group{hg}
	for _, vm := range tpusim.AllVMs() {
		groups = append(groups, tpuGroup(vm))
	}
	groups = append(groups, gpuGroup())

	rep := &Report{
		Env:     hostbench.CurrentEnvironment(),
		Sizes:   cfg.Sizes,
		Repeats: cfg.Repeats,
	}
	var sumBefore, sumAfter float64
	var sumObjBefore, sumObjAfter float64
	var total int
	for _, g := range groups {
		meas := make([]float64, len(g.points))
		for i, pt := range g.points {
			meas[i] = pt.meas
		}
		fr, err := Fit(g.defaults, g.mask, meas, g.predict, cfg.Parallel)
		if err != nil {
			return nil, fmt.Errorf("calib: fitting %s: %w", g.spec, err)
		}
		before, err := g.predict(fr.Defaults)
		if err != nil {
			return nil, err
		}
		after, err := g.predict(fr.Constants)
		if err != nil {
			return nil, err
		}

		sf := SpecFit{
			Spec: g.spec, Source: g.source, Points: len(g.points), Mask: g.mask,
			Defaults: fr.Defaults, Fitted: fr.Constants,
			RMSRelErrBefore: math.Sqrt(fr.ObjBefore / float64(len(g.points))),
			RMSRelErrAfter:  math.Sqrt(fr.ObjAfter / float64(len(g.points))),
			ObjBefore:       fr.ObjBefore, ObjAfter: fr.ObjAfter,
		}
		sumObjBefore += fr.ObjBefore
		sumObjAfter += fr.ObjAfter
		for i, pt := range g.points {
			relErr := before[i]/pt.meas - 1
			relFit := after[i]/pt.meas - 1
			rep.Records = append(rep.Records, Record{
				ID:   g.spec + "/" + pt.id,
				Spec: g.spec, Source: g.source, Kernel: pt.kernel, N: pt.n,
				Samples: pt.samples, MeasuredNs: pt.meas,
				PredictedNs: before[i], FittedNs: after[i],
				RelErr: relErr, RelErrFitted: relFit,
			})
			sf.MeanAbsRelErrBefore += math.Abs(relErr)
			sf.MeanAbsRelErrAfter += math.Abs(relFit)
			sumBefore += math.Abs(relErr)
			sumAfter += math.Abs(relFit)
			total++
		}
		sf.MeanAbsRelErrBefore /= float64(len(g.points))
		sf.MeanAbsRelErrAfter /= float64(len(g.points))
		rep.Fits = append(rep.Fits, sf)
	}
	rep.RMSRelErrBefore = math.Sqrt(sumObjBefore / float64(total))
	rep.RMSRelErrAfter = math.Sqrt(sumObjAfter / float64(total))
	rep.MeanAbsRelErrBefore = sumBefore / float64(total)
	rep.MeanAbsRelErrAfter = sumAfter / float64(total)
	return rep, nil
}

// Summary renders the human-readable report crossbench prints.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "calibration: %d record(s), RMS rel err %.3f → %.3f, mean |rel err| %.1f%% → %.1f%% (default → fitted constants)\n",
		len(r.Records), r.RMSRelErrBefore, r.RMSRelErrAfter,
		r.MeanAbsRelErrBefore*100, r.MeanAbsRelErrAfter*100)
	for _, f := range r.Fits {
		fmt.Fprintf(&b, "  %-10s %-9s %d point(s): RMS %.3f → %.3f  launch %.2gs→%.2gs hbm %.2f vmem %.2f ntt %.2f\n",
			f.Spec, f.Source, f.Points,
			f.RMSRelErrBefore, f.RMSRelErrAfter,
			f.Defaults.LaunchOverhead, f.Fitted.LaunchOverhead,
			f.Fitted.HBMFraction, f.Fitted.VMEMFraction, f.Fitted.NTTEfficiency)
	}
	return b.String()
}
