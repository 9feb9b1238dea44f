package gpusim_test

import (
	"testing"

	"cross/internal/cross"
	"cross/internal/cross/crosstest"
	"cross/internal/gpusim"
)

// TestTargetConformance runs the shared cross.Target conformance suite
// (internal/cross/crosstest) against every modelled GPU part, for both
// the bare Device and the NVLink Node — the acceptance gate that the
// GPU backend honours the same contract the compiler lowers against.
func TestTargetConformance(t *testing.T) {
	for _, spec := range gpusim.AllSpecs() {
		spec := spec
		crosstest.Conformance(t, crosstest.Backend{
			Name:      "gpusim/" + spec.Name,
			NewDevice: func() cross.Target { return gpusim.NewDevice(spec) },
			NewNode:   func(gpus int) cross.Target { return gpusim.MustNode(spec, gpus) },
		})
	}
}

// TestCompileRejectsTypedNil checks that typed-nil GPU targets are
// rejected by cross.Compile with an error, not a nil dereference.
func TestCompileRejectsTypedNil(t *testing.T) {
	for _, tgt := range []cross.Target{(*gpusim.Device)(nil), (*gpusim.Node)(nil)} {
		if _, err := cross.Compile(tgt, cross.SetA()); err == nil {
			t.Errorf("Compile(%T(nil)) succeeded, want an error", tgt)
		}
	}
}
