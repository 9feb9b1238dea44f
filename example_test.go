package cross_test

import (
	"fmt"

	"cross"
)

// Example demonstrates the two layers of the library: functional HE
// (encrypt → square → decrypt) and the simulated TPU lowering.
func Example() {
	ctx, err := cross.NewContext(cross.ContextOptions{LogN: 10, Limbs: 4})
	if err != nil {
		panic(err)
	}
	x := make([]complex128, ctx.Slots())
	x[0] = 3
	ct, err := ctx.EncryptValues(x)
	if err != nil {
		panic(err)
	}
	sq, err := ctx.MulRescale(ct, ct)
	if err != nil {
		panic(err)
	}
	fmt.Printf("3² ≈ %.2f\n", real(ctx.DecryptValues(sq)[0]))

	comp, err := cross.Compile(cross.NewDevice(cross.TPUv6e()), cross.SetD())
	if err != nil {
		panic(err)
	}
	ops := comp.MeasureHEOps()
	fmt.Printf("simulated HE-Mult is %.0f× HE-Add\n", ops.Mult/ops.Add)
	// Output:
	// 3² ≈ 9.00
	// simulated HE-Mult is 238× HE-Add
}

// ExampleNewPod demonstrates the pod-scale lowering: the same HE-Mult
// schedule lowered onto one core and onto a 4-core pod, where the
// limb- and digit-parallel work shards across cores and only the
// collective phases pay inter-chip (ICI) cost.
func ExampleNewPod() {
	single, err := cross.NewPod(cross.TPUv6e(), 1)
	if err != nil {
		panic(err)
	}
	quad, err := cross.NewPod(cross.TPUv6e(), 4)
	if err != nil {
		panic(err)
	}
	one, err := cross.Compile(single, cross.SetD())
	if err != nil {
		panic(err)
	}
	four, err := cross.Compile(quad, cross.SetD())
	if err != nil {
		panic(err)
	}
	fmt.Println(quad.Name(), "cores:", four.NumCores())
	fmt.Println("4-core HE-Mult faster:", four.LowerHEMult().Total < one.LowerHEMult().Total)
	// Output:
	// TPUv6e-4 cores: 4
	// 4-core HE-Mult faster: true
}

// ExampleCompile demonstrates the unified Target interface: the same
// Compile call lowers onto a bare tensor core and onto a pod, and a
// 1-core pod's schedule is bit-identical to the device's — one
// lowering code path for both.
func ExampleCompile() {
	onCore, err := cross.Compile(cross.NewDevice(cross.TPUv6e()), cross.SetD())
	if err != nil {
		panic(err)
	}
	pod, err := cross.NewPod(cross.TPUv6e(), 1)
	if err != nil {
		panic(err)
	}
	onPod, err := cross.Compile(pod, cross.SetD())
	if err != nil {
		panic(err)
	}
	fmt.Println("1-core pod ≡ device:", onPod.LowerHEMult().Total == onCore.LowerHEMult().Total)

	quad, err := cross.NewPod(cross.TPUv6e(), 4)
	if err != nil {
		panic(err)
	}
	onQuad, err := cross.Compile(quad, cross.SetD())
	if err != nil {
		panic(err)
	}
	sched := onQuad.LowerHEMult()
	fmt.Println("4-core target:", sched.Target, "— faster:", sched.Total < onCore.LowerHEMult().Total,
		"— collective time priced:", sched.Collective > 0)
	// Output:
	// 1-core pod ≡ device: true
	// 4-core target: TPUv6e-4 — faster: true — collective time priced: true
}

// ExampleNewProgram composes a multi-operator HE workload into one
// costed, memoized schedule — the Program face of the Schedule IR.
func ExampleNewProgram() {
	comp, err := cross.Compile(cross.NewDevice(cross.TPUv6e()), cross.SetC())
	if err != nil {
		panic(err)
	}
	prog := cross.NewProgram(comp).HEMultN(3).Rotate(1).Rescale().Batch(8)
	sched := prog.Lower()
	fmt.Println(sched.Op)
	fmt.Println("ops:", prog.OpCount())
	fmt.Println("total equals 8× the single batch:",
		sched.Total == 8*cross.NewProgram(comp).HEMultN(3).Rotate(1).Rescale().Lower().Total)
	// Output:
	// 8×Program[3×HE-Mult + Rotate + Rescale]
	// ops: 40
	// total equals 8× the single batch: true
}

// ExampleCompileScalarBAT shows BAT's core transformation: a pre-known
// scalar becomes a dense K×K uint8 matrix whose INT8 matrix-vector
// product computes the modular multiplication (paper Fig. 7).
func ExampleCompileScalarBAT() {
	m, err := cross.NewModulus(268369921) // 28-bit NTT prime
	if err != nil {
		panic(err)
	}
	plan, err := cross.CompileScalarBAT(m, 123456789%m.Q)
	if err != nil {
		panic(err)
	}
	fmt.Println(plan.Mul(42) == m.MulMod(123456789%m.Q, 42))
	// Output: true
}
