package workload

import (
	"testing"

	"cross/internal/cross"
	"cross/internal/refdata"
	"cross/internal/tpusim"
)

func TestOpCountsArithmetic(t *testing.T) {
	a := OpCounts{Mults: 1, Rotates: 2}
	b := OpCounts{Mults: 3, Adds: 4}
	a.Add(b)
	if a.Mults != 4 || a.Rotates != 2 || a.Adds != 4 {
		t.Fatal("Add broken")
	}
	if a.Total() != 10 {
		t.Fatalf("Total = %d", a.Total())
	}
	if a.Describe() == "" {
		t.Fatal("empty description")
	}
}

func TestLayerCountsPositive(t *testing.T) {
	layers := []interface{ Counts() OpCounts }{
		ConvLayer{Kernel: 5, InGroups: 1, Out: 4},
		FCLayer{Rows: 64, Cols: 512},
		ActLayer{Degree: 2},
		PoolLayer{Window: 2},
	}
	for i, l := range layers {
		if l.Counts().Total() <= 0 {
			t.Errorf("layer %d has empty schedule", i)
		}
	}
	// Square activation is exactly one multiplication.
	if c := (ActLayer{Degree: 2}).Counts(); c.Mults != 1 {
		t.Errorf("square activation mults = %d", c.Mults)
	}
	// BSGS rotations ≈ 2√d.
	if c := (FCLayer{Rows: 64, Cols: 512}).Counts(); c.Rotates != 16 {
		t.Errorf("FC 64 BSGS rotations = %d want 16", c.Rotates)
	}
}

func TestMNISTEstimateShape(t *testing.T) {
	// The MNIST estimate must land within an order of magnitude of the
	// paper's 270 ms/image on a v6e core and beat the Orion baseline.
	p := MNISTParams()
	if p.N() != 1<<13 || p.L != 18 || p.Dnum != 3 {
		t.Fatal("MNIST params drifted from §V-D")
	}
	c, err := cross.Compile(tpusim.NewDevice(tpusim.TPUv6e()), p)
	if err != nil {
		t.Fatal(err)
	}
	total, perImage := EstimateMNIST(c)
	if total <= 0 {
		t.Fatal("empty estimate")
	}
	perImageMs := perImage * 1e3
	if perImageMs < refdata.MNISTLatencyMs/10 || perImageMs > refdata.MNISTLatencyMs*10 {
		t.Errorf("MNIST per-image %.1f ms outside 10× band of paper's %.0f ms", perImageMs, refdata.MNISTLatencyMs)
	}
	if perImageMs >= refdata.OrionMNISTLatencyMs {
		t.Errorf("MNIST per-image %.1f ms does not beat Orion's %.0f ms", perImageMs, refdata.OrionMNISTLatencyMs)
	}
}

func TestHELREstimateShape(t *testing.T) {
	c, err := cross.Compile(tpusim.NewDevice(tpusim.TPUv6e()), cross.SetD())
	if err != nil {
		t.Fatal(err)
	}
	iter := EstimateHELR(c)
	iterMs := iter * 1e3
	if iterMs < refdata.HELRIterationMs/10 || iterMs > refdata.HELRIterationMs*10 {
		t.Errorf("HELR iteration %.1f ms outside 10× band of paper's %.0f ms", iterMs, refdata.HELRIterationMs)
	}
}

func TestHELRSchedulePinned(t *testing.T) {
	// Regression pin for the HELR iteration schedule: the degree-3
	// sigmoid is exactly two ciphertext mults (z², then z²·z) — it was
	// once miscounted as three.
	got := HELRSchedule(HELRFeatures)
	want := OpCounts{
		Rotates:  64, // 4·√196 rounded up to a power of two (BSGS fwd+bwd)
		PtMuls:   49, // 2·196/8
		Mults:    2,
		Adds:     53, // 2·196/8 + 4
		PtAdds:   4,
		Rescales: 4,
	}
	if got != want {
		t.Errorf("HELR schedule drifted:\n got %+v\nwant %+v", got, want)
	}
}

func TestMNISTScheduleComposition(t *testing.T) {
	var counts OpCounts
	for _, l := range MNISTNetwork() {
		counts.Add(l)
	}
	// The network has 3 square activations.
	if counts.Mults < 3 {
		t.Errorf("mults %d < 3 activations", counts.Mults)
	}
	if counts.Rotates == 0 || counts.PtMuls == 0 {
		t.Error("conv/FC schedule incomplete")
	}
}

func TestEstimateLatencyAdditive(t *testing.T) {
	c, err := cross.Compile(tpusim.NewDevice(tpusim.TPUv4()), cross.SetB())
	if err != nil {
		t.Fatal(err)
	}
	a := OpCounts{Mults: 2}
	b := OpCounts{Rotates: 3}
	sum := a
	sum.Add(b)
	la := EstimateLatency(c, a)
	lb := EstimateLatency(c, b)
	ls := EstimateLatency(c, sum)
	if diff := ls - (la + lb); diff > 1e-12 || diff < -1e-12 {
		t.Errorf("estimate not additive: %g vs %g", ls, la+lb)
	}
}
