package sweep

import (
	"bytes"
	"encoding/json"
	"testing"
)

// marshal renders records exactly as crossbench sweep -json does.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelSweepBitIdentical is the engine's core guarantee: the
// JSON of a parallel sweep byte-equals the serial sweep. Table-driven
// over widths so a scheduling-order dependence at any parallelism
// fails loudly. The record JSON includes overlapped_s, so this also
// pins the DAG engine's determinism at every parallelism.
func TestParallelSweepBitIdentical(t *testing.T) {
	base := Config{Parallel: 1}
	serial, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range serial {
		if r.OverlappedS <= 0 {
			t.Fatalf("%s: overlapped_s = %g — byte-identity would vacuously cover the column", r.ID, r.OverlappedS)
		}
	}
	want := marshal(t, serial)

	for _, workers := range []int{2, 4, 8} {
		cfg := base
		cfg.Parallel = workers
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("parallel %d: %v", workers, err)
		}
		if !bytes.Equal(marshal(t, got), want) {
			t.Errorf("parallel %d sweep JSON differs from serial sweep", workers)
		}
	}
}

// TestSweepShape checks the cross-product enumeration: count, stable
// order, and well-formed records.
func TestSweepShape(t *testing.T) {
	cfg := Config{Parallel: 4}.withDefaults()
	recs, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := len(cfg.Sets) * len(cfg.Specs) * len(cfg.Cores) * len(cfg.Workloads)
	if len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	if recs[0].ID != "SetA/TPUv4-1/HE-Mult" {
		t.Errorf("first record %q: enumeration order changed", recs[0].ID)
	}
	// The device axis is the registry in registration order: TPUs in
	// the paper's Tab. IV order, then the GPU parts — so the last TPU
	// record keeps its pre-GPU position and the sweep ends on the
	// newest GPU.
	last := recs[len(recs)-1]
	if last.ID != "SetD/H100-16/HELR" {
		t.Errorf("last record %q: enumeration order changed", last.ID)
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if r.TotalS <= 0 {
			t.Errorf("%s: non-positive latency %g", r.ID, r.TotalS)
		}
		if r.OverlappedS <= 0 || r.OverlappedS > r.TotalS {
			t.Errorf("%s: overlapped %g outside (0, total=%g]", r.ID, r.OverlappedS, r.TotalS)
		}
		if r.CollectiveS < 0 || r.CollectiveS > r.TotalS {
			t.Errorf("%s: collective %g outside [0, total=%g]", r.ID, r.CollectiveS, r.TotalS)
		}
		if r.Cores == 1 && r.CollectiveS != 0 {
			t.Errorf("%s: single-core record has collective time %g", r.ID, r.CollectiveS)
		}
		if r.Kernels.Total() <= 0 {
			t.Errorf("%s: empty kernel tally", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate record id %s", r.ID)
		}
		seen[r.ID] = true
	}
}

// TestSweepSubsetConfig checks axis selection narrows the product.
func TestSweepSubsetConfig(t *testing.T) {
	recs, err := Run(Config{
		Sets:      []string{"B"},
		Specs:     []string{"TPUv6e"},
		Cores:     []int{1, 4},
		Workloads: []string{WorkloadRotate},
		Parallel:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].ID != "SetB/TPUv6e-1/Rotate" || recs[1].ID != "SetB/TPUv6e-4/Rotate" {
		t.Errorf("unexpected ids %q, %q", recs[0].ID, recs[1].ID)
	}
	// The 4-core pod pays ICI time the single core doesn't.
	if recs[1].CollectiveS <= 0 {
		t.Errorf("4-core rotate has no collective time")
	}
}

// TestSweepRejectsUnknownAxes checks error paths surface the case id.
func TestSweepRejectsUnknownAxes(t *testing.T) {
	for _, cfg := range []Config{
		{Sets: []string{"Z"}},
		{Specs: []string{"TPUv9"}},
		{Workloads: []string{"Quake"}},
		{Cores: []int{0}},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %+v: want error, got nil", cfg)
		}
	}
}
