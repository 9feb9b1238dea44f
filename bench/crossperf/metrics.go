package main

// metric is one reported number: its name and unit. BENCHMARK.json at
// the repository root lists the same names with their direction and
// regression bound; the tests keep the two in step.
type metric struct{ name, unit string }

// endToEnd is what a user of the HE stack, or of the serving model,
// sees. Every workload reports all of them, always from an untraced
// phase.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_mb_per_req", "MB"},
	{"heap_p90_mb", "MB"},
}

// ckksCalls are the ckks entry points the benchmark wraps in spans.
var ckksCalls = []string{"mulrelin", "rotate", "rescale", "mulplain", "add", "encode", "encrypt", "decrypt", "decode"}

// perLayer comes from the traced phase and the layer probes that follow
// it. Every workload reports all of them: times are measured on every
// workload (layers a workload bypasses are timed by the op tour and the
// probes), while exact counts read 0 where a workload bypasses a layer.
var perLayer = func() []metric {
	var m []metric
	for _, c := range ckksCalls {
		m = append(m, metric{"ckks." + c + "_ms", "ms"})
	}
	return append(m,
		metric{"ckks.ntt_limbs", "count"},
		metric{"ckks.intt_limbs", "count"},
		metric{"ckks.bconv_calls", "count"},
		metric{"ckks.vecmul_n", "count"},
		metric{"ckks.vecadd_n", "count"},
		metric{"ckks.automorph", "count"},
		metric{"ckks.precision_bits", "bits"},
		metric{"ring.ntt_us", "us"},
		metric{"ring.intt_us", "us"},
		metric{"ring.automorph_us", "us"},
		metric{"rns.modup_us", "us"},
		metric{"rns.moddown_us", "us"},
		metric{"modarith.vecmul_us", "us"},
		metric{"modarith.vecadd_us", "us"},
		metric{"runtime.gc_cycles_per_req", "count"},
		metric{"runtime.gc_cpu_frac", "frac"},
		metric{"runtime.heap_live_mb", "MB"},
		metric{"cross.lower_ms", "ms"},
		metric{"serve.sim_requests", "count"},
		metric{"serve.batches", "count"},
		metric{"serve.retries", "count"},
		metric{"serve.hedges", "count"},
		metric{"serve.crashes", "count"},
		metric{"sweep.full_s", "s"},
		metric{"trace.overhead_frac", "frac"},
	)
}()

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line the benchmark prints.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}
