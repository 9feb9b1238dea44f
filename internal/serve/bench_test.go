package serve

import (
	"fmt"
	"testing"
)

// syntheticTable builds a priceTable directly, bypassing accelerator
// pricing, so benchmarks and large-horizon tests measure the event
// engine rather than schedule lowering. Service times are plausible
// HE-op magnitudes: 100 µs single-request, mildly sub-linear batching.
func syntheticTable(cfg Config) *priceTable {
	pt := &priceTable{}
	for _, g := range cfg.resolvedFleet() {
		gp := groupPrices{
			device: g.Device, cores: g.Cores, count: g.Count,
			dollarPerHour: g.DollarPerHour,
		}
		for range cfg.Mix {
			gp.base = append(gp.base, 1e-4)
			svc := make([]float64, cfg.MaxBatch)
			for b := 1; b <= cfg.MaxBatch; b++ {
				svc[b-1] = 1e-4 * (1 + 0.08*float64(b-1))
			}
			gp.svc = append(gp.svc, svc)
		}
		for p := 0; p < g.Count; p++ {
			pt.podGroup = append(pt.podGroup, len(pt.groups))
		}
		pt.groups = append(pt.groups, gp)
	}
	return pt
}

// benchConfig produces n requests in expectation at ~70% of the
// synthetic fleet's capacity, so queues stay bounded and the run
// drains.
func benchConfig(n int, streaming bool) Config {
	cfg := Config{
		Seed: 7, Spec: "TPUv5e", Set: "B", Pods: 4,
		Policy: PolicyJSQ, MaxBatch: 8,
		Mix: hemultOnly(),
	}
	if streaming {
		cfg.Stats = StatsStreaming
	}
	cfg = cfg.withDefaults()
	// Synthetic per-pod full-batch throughput: 8 / svc(8).
	perPod := 8.0 / (1e-4 * (1 + 0.08*7))
	cfg.Rate = 0.7 * perPod * float64(cfg.Pods)
	cfg.HorizonS = float64(n) / cfg.Rate
	return cfg
}

// BenchmarkSimHorizon is the event-engine smoke benchmark: simulator
// cost must scale roughly linearly in the request count. Before the
// index-tracked queue refactor, per-event O(queue) scans made long
// horizons superlinear; a 10× horizon costing ≫10× here is the
// regression signal. Both stats modes run: streaming is what long
// horizons use, stored is the default every serve record uses.
func BenchmarkSimHorizon(b *testing.B) {
	for _, stats := range []string{StatsStreaming, StatsStored} {
		for _, n := range []int{10_000, 100_000} {
			b.Run(fmt.Sprintf("stats=%s/requests=%d", stats, n), func(b *testing.B) {
				cfg := benchConfig(n, stats == StatsStreaming)
				pt := syntheticTable(cfg)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := newSim(cfg, pt)
					if err != nil {
						b.Fatal(err)
					}
					s.run()
					r := s.result(pt.capacity(cfg))
					if r.Completed == 0 {
						b.Fatal("benchmark sim served nothing")
					}
				}
			})
		}
	}
}

// TestMillionRequestStreamingHorizon is the ISSUE acceptance run: a
// ~10^6-request horizon completes under streaming statistics with
// full accounting. This is the scenario the stored mode refuses
// (maxRequests) and O(n)-scan queues made impractical.
func TestMillionRequestStreamingHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("million-request horizon skipped in -short mode")
	}
	const n = 1_000_000
	cfg := benchConfig(n, true)
	pt := syntheticTable(cfg)
	s, err := newSim(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	s.run()
	r := s.result(pt.capacity(cfg))
	// Poisson fluctuation around n is a few per mille at this scale.
	if r.Requests < n*9/10 || r.Requests > n*11/10 {
		t.Fatalf("expected ~%d requests, got %d", n, r.Requests)
	}
	if r.Completed != r.Requests {
		t.Fatalf("streaming horizon did not drain: %d of %d", r.Completed, r.Requests)
	}
	if r.Latency.P99S <= 0 || r.Latency.MeanS <= 0 || r.Latency.MaxS < r.Latency.P99S {
		t.Errorf("degenerate latency section at scale: %+v", r.Latency)
	}
	if r.Latency.P50S > r.Latency.P95S || r.Latency.P95S > r.Latency.P99S {
		t.Errorf("quantiles not monotone: %+v", r.Latency)
	}
}
