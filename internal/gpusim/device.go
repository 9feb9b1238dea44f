package gpusim

import "cross/internal/tpusim"

// Device is one GPU as a cross.Target: the roofline core produced by
// Spec.CoreSpec plus an owned (initially empty) collective trace. A
// single GPU has no NVLink peers, so its collectives are free — the
// same degenerate shape as a 1-core tpusim Device — but the trace is
// still owned and swappable because the Schedule IR compiler installs
// its own trace to observe collective charges.
type Device struct {
	GPU  Spec
	core *tpusim.Device
	coll *tpusim.Trace
}

// NewDevice builds a Device for one GPU of the given part.
func NewDevice(spec Spec) *Device {
	return &Device{
		GPU:  spec,
		core: tpusim.NewDevice(spec.CoreSpec()),
		coll: tpusim.NewTrace(),
	}
}

// Core exposes the roofline core the kernel lowerings price against
// (nil on a nil Device, so cross.Compile rejects it instead of
// panicking).
func (d *Device) Core() *tpusim.Device {
	if d == nil {
		return nil
	}
	return d.core
}

// NumCores reports the target's parallelism degree: one GPU.
func (d *Device) NumCores() int { return 1 }

// Name returns the part name ("H100").
func (d *Device) Name() string { return d.GPU.Name }

// AllGather on a single GPU moves no bytes over NVLink.
func (d *Device) AllGather(bytes int64) float64 { return 0 }

// AllReduce on a single GPU moves no bytes over NVLink.
func (d *Device) AllReduce(bytes int64) float64 { return 0 }

// Broadcast on a single GPU moves no bytes over NVLink.
func (d *Device) Broadcast(bytes int64) float64 { return 0 }

// CollectiveTrace returns the trace NVLink time is charged to (never
// nil; empty on a single GPU).
func (d *Device) CollectiveTrace() *tpusim.Trace { return d.coll }

// SetCollectiveTrace swaps the collective trace, ignoring nil to keep
// the never-nil invariant.
func (d *Device) SetCollectiveTrace(t *tpusim.Trace) {
	if t != nil {
		d.coll = t
	}
}

// Reset clears the compute and collective traces.
func (d *Device) Reset() {
	d.core.Trace.Reset()
	d.coll.Reset()
}
