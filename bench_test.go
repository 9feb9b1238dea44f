// Benchmarks regenerating the paper's tables and figures (§V). Two
// kinds of numbers appear here:
//
//   - wall-clock ns/op: real CPU time of the functional kernels on this
//     host (the reproduction's "CPU platform");
//   - sim_us / sim_kNTT_s / … custom metrics: the TPU simulator's
//     estimates, which are the reproduction of the paper's TPU
//     measurements (compare shapes, not absolutes — see EXPERIMENTS.md).
//
// One benchmark exists per paper table/figure; `go test -bench=.` runs
// the whole evaluation.
package cross_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cross"
	"cross/internal/bat"
	icross "cross/internal/cross"
	"cross/internal/gpusim"
	"cross/internal/modarith"
	"cross/internal/ring"
	"cross/internal/tpusim"
	"cross/internal/workload"
)

func mustCompiler(b *testing.B, spec tpusim.Spec, p icross.Params) *icross.Compiler {
	b.Helper()
	c, err := icross.Compile(tpusim.NewDevice(spec), p)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTableV regenerates Tab. V: BAT vs sparse-baseline ModMatMul.
// Simulated latencies are attached as metrics; the functional BAT
// pipeline is executed at a reduced size for real ns/op.
func BenchmarkTableV(b *testing.B) {
	b.ReportAllocs()
	sizes := [][3]int{{512, 256, 256}, {2048, 256, 256}, {2048, 2048, 2048}}
	for _, hvw := range sizes {
		hvw := hvw
		b.Run(fmt.Sprintf("H%d_V%d_W%d", hvw[0], hvw[1], hvw[2]), func(b *testing.B) {
			b.ReportAllocs()
			c := mustCompiler(b, tpusim.TPUv6e(), icross.SetD())
			var base, batT float64
			for i := 0; i < b.N; i++ {
				base = c.LowerMatModMul(hvw[0], hvw[1], hvw[2], false).Total
				batT = c.LowerMatModMul(hvw[0], hvw[1], hvw[2], true).Total
			}
			b.ReportMetric(base*1e6, "sim_base_us")
			b.ReportMetric(batT*1e6, "sim_bat_us")
			b.ReportMetric(base/batT, "sim_speedup")
		})
	}
	// Functional execution (small size, real time).
	b.Run("functional_64x64x64", func(b *testing.B) {
		b.ReportAllocs()
		m := modarith.MustModulus(268369921)
		rng := rand.New(rand.NewSource(1))
		a := make([]uint64, 64*64)
		x := make([]uint64, 64*64)
		for i := range a {
			a[i], x[i] = rng.Uint64()%m.Q, rng.Uint64()%m.Q
		}
		plan, err := bat.OfflineCompileLeft(m, a, 64, 64)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Mul(x, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTableVI regenerates Tab. VI: BConv step 2 with/without BAT.
func BenchmarkTableVI(b *testing.B) {
	b.ReportAllocs()
	for _, ll := range [][2]int{{12, 28}, {12, 36}, {16, 40}, {24, 56}} {
		ll := ll
		b.Run(fmt.Sprintf("l%d_to_%d", ll[0], ll[1]), func(b *testing.B) {
			b.ReportAllocs()
			c := mustCompiler(b, tpusim.TPUv6e(), icross.SetD())
			var with, without float64
			for i := 0; i < b.N; i++ {
				with = c.LowerBConv(1<<16, ll[0], ll[1], true).Total
				without = c.LowerBConv(1<<16, ll[0], ll[1], false).Total
			}
			b.ReportMetric(with*1e6, "sim_bat_us")
			b.ReportMetric(without*1e6, "sim_base_us")
			b.ReportMetric(without/with, "sim_speedup")
		})
	}
}

// BenchmarkTableVII regenerates Tab. VII / Fig. 11a: peak NTT throughput
// per TPU generation at the paper's three degrees.
func BenchmarkTableVII(b *testing.B) {
	b.ReportAllocs()
	for _, spec := range tpusim.AllSpecs() {
		for _, set := range []icross.Params{icross.SetA(), icross.SetB(), icross.SetC()} {
			spec, set := spec, set
			b.Run(fmt.Sprintf("%s_N2e%d", spec.Name, set.LogN), func(b *testing.B) {
				b.ReportAllocs()
				c := mustCompiler(b, spec, set)
				var thr float64
				for i := 0; i < b.N; i++ {
					_, thr = c.BestNTTBatch(128)
				}
				b.ReportMetric(thr/1e3, "sim_kNTT_s_core")
			})
		}
	}
}

// BenchmarkFig11b regenerates the batch-size sweep on TPUv6e.
func BenchmarkFig11b(b *testing.B) {
	b.ReportAllocs()
	for _, name := range []string{"A", "B", "C", "D"} {
		name := name
		b.Run("Set"+name, func(b *testing.B) {
			b.ReportAllocs()
			p, err := icross.NamedSet(name)
			if err != nil {
				b.Fatal(err)
			}
			c := mustCompiler(b, tpusim.TPUv6e(), p)
			var best int
			var gain float64
			for i := 0; i < b.N; i++ {
				base := c.NTTThroughput(1)
				var thr float64
				best, thr = c.BestNTTBatch(128)
				gain = thr / base
			}
			b.ReportMetric(float64(best), "sim_best_batch")
			b.ReportMetric(gain, "sim_gain")
		})
	}
}

// BenchmarkTableVIII regenerates the HE-operator latencies on a
// simulated v6e core for the paper's default Set D.
func BenchmarkTableVIII(b *testing.B) {
	b.ReportAllocs()
	c := mustCompiler(b, tpusim.TPUv6e(), icross.SetD())
	var ops icross.HEOpLatencies
	for i := 0; i < b.N; i++ {
		ops = c.MeasureHEOps()
	}
	b.ReportMetric(ops.Add*1e6, "sim_add_us")
	b.ReportMetric(ops.Mult*1e6, "sim_mult_us")
	b.ReportMetric(ops.Rescale*1e6, "sim_rescale_us")
	b.ReportMetric(ops.Rotate*1e6, "sim_rotate_us")
}

// BenchmarkFig12 regenerates the HE-Mult breakdown shares.
func BenchmarkFig12(b *testing.B) {
	b.ReportAllocs()
	c := mustCompiler(b, tpusim.TPUv6e(), icross.SetD())
	var vecShare float64
	for i := 0; i < b.N; i++ {
		tr := c.LowerHEMult().Trace
		vecShare = tr.Seconds(tpusim.CatVecModOps) / tr.Total()
	}
	b.ReportMetric(vecShare*100, "sim_vecmod_pct")
}

// BenchmarkTableIX regenerates the packed-bootstrapping estimate.
func BenchmarkTableIX(b *testing.B) {
	b.ReportAllocs()
	c := mustCompiler(b, tpusim.TPUv6e(), icross.SetD())
	sched := icross.DefaultBootstrapSchedule(icross.SetD())
	var lat float64
	for i := 0; i < b.N; i++ {
		lat = c.LowerBootstrap(sched).Total
	}
	b.ReportMetric(lat/8*1e3, "sim_v6e8_ms") // amortised over 8 cores
}

// BenchmarkFig13a regenerates the VecModMul reduction ablation.
func BenchmarkFig13a(b *testing.B) {
	b.ReportAllocs()
	p := icross.SetD()
	elems := 2 * p.L * p.N()
	for _, alg := range []modarith.ReduceAlgorithm{modarith.Barrett, modarith.Montgomery, modarith.Shoup, modarith.BATLazy} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			pp := p
			pp.Red = alg
			c := mustCompiler(b, tpusim.TPUv6e(), pp)
			var lat float64
			for i := 0; i < b.N; i++ {
				lat = c.LowerVecModMul(elems).Total
			}
			b.ReportMetric(lat*1e6, "sim_us")
		})
	}
}

// BenchmarkFig13b regenerates the NTT reduction ablation.
func BenchmarkFig13b(b *testing.B) {
	b.ReportAllocs()
	for _, alg := range []modarith.ReduceAlgorithm{modarith.Barrett, modarith.Montgomery, modarith.Shoup, modarith.BATLazy} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			p := icross.SetD()
			p.Red = alg
			c := mustCompiler(b, tpusim.TPUv6e(), p)
			var lat float64
			for i := 0; i < b.N; i++ {
				lat = c.LowerNTT(8).Total
			}
			b.ReportMetric(lat*1e6, "sim_us")
		})
	}
}

// BenchmarkTableX regenerates radix-2 vs MAT NTT on TPUv4 and also runs
// both functionally on the CPU for real wall times (the §V-B CPU-CROSS
// datapoint).
func BenchmarkTableX(b *testing.B) {
	b.ReportAllocs()
	b.Run("simulated_N2e14", func(b *testing.B) {
		b.ReportAllocs()
		p := icross.SetC()
		c := mustCompiler(b, tpusim.TPUv4(), p)
		var r2, mat float64
		for i := 0; i < b.N; i++ {
			r2 = c.LowerNTTRadix2(128).Total
			mat = c.LowerNTT(128).Total
		}
		b.ReportMetric(r2*1e6, "sim_radix2_us")
		b.ReportMetric(mat*1e6, "sim_mat_us")
		b.ReportMetric(r2/mat, "sim_speedup")
	})

	n := 1 << 12
	primes, err := modarith.GenerateNTTPrimes(28, uint64(n), 1)
	if err != nil {
		b.Fatal(err)
	}
	rg := ring.MustRing(n, primes)
	data := make([]uint64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range data {
		data[i] = rng.Uint64() % primes[0]
	}
	b.Run("cpu_radix2_N2e12", func(b *testing.B) {
		b.ReportAllocs()
		buf := append([]uint64(nil), data...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rg.NTTLimb(0, buf)
		}
	})
	b.Run("cpu_mat3step_N2e12", func(b *testing.B) {
		b.ReportAllocs()
		plan, err := ring.NewMatNTTPlan(rg, 64, 64, ring.LayoutBitRev)
		if err != nil {
			b.Fatal(err)
		}
		out := make([]uint64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan.ForwardLimb(0, data, out)
		}
	})
}

// BenchmarkMNIST regenerates the §V-D MNIST estimate.
func BenchmarkMNIST(b *testing.B) {
	b.ReportAllocs()
	c := mustCompiler(b, tpusim.TPUv6e(), workload.MNISTParams())
	var perImage float64
	for i := 0; i < b.N; i++ {
		_, perImage = workload.EstimateMNIST(c)
	}
	b.ReportMetric(perImage*1e3, "sim_ms_per_image")
}

// BenchmarkLogReg regenerates the §V-D HELR estimate.
func BenchmarkLogReg(b *testing.B) {
	b.ReportAllocs()
	c := mustCompiler(b, tpusim.TPUv6e(), icross.SetD())
	var iter float64
	for i := 0; i < b.N; i++ {
		iter = workload.EstimateHELR(c)
	}
	b.ReportMetric(iter*1e3, "sim_ms_per_iter")
}

// BenchmarkCPUHEOps times the functional CKKS operators on this host —
// the reproduction's CPU platform row of Tab. VIII (Fig. 14's source).
func BenchmarkCPUHEOps(b *testing.B) {
	b.ReportAllocs()
	ctx, err := cross.NewContext(cross.ContextOptions{LogN: 12, Limbs: 6, Rotations: []int{1}})
	if err != nil {
		b.Fatal(err)
	}
	z := make([]complex128, ctx.Slots())
	for i := range z {
		z[i] = complex(float64(i%7)/7, 0)
	}
	ct1, err := ctx.EncryptValues(z)
	if err != nil {
		b.Fatal(err)
	}
	ct2, err := ctx.EncryptValues(z)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("HE-Add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Evaluator.Add(ct1, ct2); err != nil {
				b.Fatal(err)
			}
		}
	})
	pt, err := ctx.Encoder.Encode(z)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Encoder.Encode(z); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Encrypt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx.Encryptor.Encrypt(pt)
		}
	})
	dec := ctx.Decryptor.Decrypt(ct1)
	b.Run("Decrypt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx.Decryptor.Decrypt(ct1)
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx.Encoder.Decode(dec)
		}
	})
	b.Run("MulPlain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Evaluator.MulPlain(ct1, pt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HE-Mult", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Evaluator.MulRelin(ct1, ct2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Rescale", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Evaluator.Rescale(ct1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Rotate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Evaluator.Rotate(ct1, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCPUKernels times the primitive kernels (Fig. 14's CPU
// profile inputs).
func BenchmarkCPUKernels(b *testing.B) {
	b.ReportAllocs()
	n := 1 << 13
	primes, err := modarith.GenerateNTTPrimes(28, uint64(n), 2)
	if err != nil {
		b.Fatal(err)
	}
	rg := ring.MustRing(n, primes)
	m := rg.Moduli[0]
	rng := rand.New(rand.NewSource(3))
	a := make([]uint64, n)
	c := make([]uint64, n)
	for i := range a {
		a[i], c[i] = rng.Uint64()%m.Q, rng.Uint64()%m.Q
	}
	dst := make([]uint64, n)

	b.Run("NTT", func(b *testing.B) {
		b.ReportAllocs()
		buf := append([]uint64(nil), a...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rg.NTTLimb(0, buf)
		}
	})
	b.Run("INTT", func(b *testing.B) {
		b.ReportAllocs()
		buf := append([]uint64(nil), a...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rg.INTTLimb(0, buf)
		}
	})
	b.Run("VecModMul_Barrett", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.VecMulMod(dst, a, c, modarith.Barrett)
		}
	})
	b.Run("VecModMul_Montgomery", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.VecMulMod(dst, a, c, modarith.Montgomery)
		}
	})
	b.Run("VecModMul_Shoup", func(b *testing.B) {
		b.ReportAllocs()
		ws := m.ShoupPrecomputeVec(c)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.VecMulModShoup(dst, a, c, ws)
		}
	})
	b.Run("VecModAdd", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.VecAddMod(dst, a, c)
		}
	})
	b.Run("Automorphism", func(b *testing.B) {
		b.ReportAllocs()
		idx, err := rg.AutomorphismNTTIndex(5)
		if err != nil {
			b.Fatal(err)
		}
		in := ring.NewPoly(1, n)
		copy(in.Coeffs[0], a)
		out := ring.NewPoly(1, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rg.AutomorphismNTT(in, out, idx)
		}
	})
}

// BenchmarkHoisting is the rotation-hoisting ablation (DESIGN.md §5):
// simulated cost of k rotations with and without a shared
// decomposition.
func BenchmarkHoisting(b *testing.B) {
	b.ReportAllocs()
	c := mustCompiler(b, tpusim.TPUv6e(), icross.SetD())
	for _, k := range []int{1, 4, 16} {
		k := k
		b.Run(fmt.Sprintf("rot%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var plain, hoisted float64
			for i := 0; i < b.N; i++ {
				plain = 0
				for j := 0; j < k; j++ {
					plain += c.LowerRotate().Total
				}
				hoisted = c.LowerRotateHoisted(k).Total
			}
			b.ReportMetric(plain*1e6, "sim_plain_us")
			b.ReportMetric(hoisted*1e6, "sim_hoisted_us")
			b.ReportMetric(plain/hoisted, "sim_speedup")
		})
	}
}

// BenchmarkCoreScaling regenerates the pod scaling sweep's headline
// numbers: sharded HE-Mult latency at 1/2/4/8 cores for Set D.
func BenchmarkCoreScaling(b *testing.B) {
	b.ReportAllocs()
	p := icross.SetD()
	single := mustCompiler(b, tpusim.TPUv6e(), p)
	base := single.LowerHEMult().Total
	for _, cores := range []int{1, 2, 4, 8} {
		cores := cores
		b.Run(fmt.Sprintf("cores%d", cores), func(b *testing.B) {
			b.ReportAllocs()
			sc, err := icross.Compile(tpusim.MustPod(tpusim.TPUv6e(), cores), p)
			if err != nil {
				b.Fatal(err)
			}
			var lat float64
			for i := 0; i < b.N; i++ {
				lat = sc.LowerHEMult().Total
			}
			b.ReportMetric(lat*1e6, "sim_mult_us")
			b.ReportMetric(base/lat, "sim_speedup")
		})
	}
}

// BenchmarkProgramLower times the Schedule IR's workload composition:
// the full MNIST CNN as ONE memoized program (each distinct operator
// lowered once for the whole network) against per-layer pricing, where
// every layer re-lowers its own operators from scratch. Both compute
// the same simulated total; the memoized program does ~1/9th the
// lowering work, which is what makes it the serving-scale substrate.
func BenchmarkProgramLower(b *testing.B) {
	b.ReportAllocs()
	c := mustCompiler(b, tpusim.TPUv6e(), workload.MNISTParams())
	b.Run("memoized_program", func(b *testing.B) {
		b.ReportAllocs()
		var total float64
		for i := 0; i < b.N; i++ {
			total = workload.MNISTProgram(c).Batch(workload.MNISTBatch).Lower().Total
		}
		b.ReportMetric(total*1e3, "sim_batch_ms")
	})
	b.Run("per_layer_lowering", func(b *testing.B) {
		b.ReportAllocs()
		var total float64
		for i := 0; i < b.N; i++ {
			total = 0
			for _, layer := range workload.MNISTNetwork() {
				total += workload.EstimateLatency(c, layer)
			}
			total *= workload.MNISTBatch
		}
		b.ReportMetric(total*1e3, "sim_batch_ms")
	})
}

// BenchmarkPodSchedule times pod-target lowering through the unified
// Compile path (a pod is just another Target).
func BenchmarkPodSchedule(b *testing.B) {
	b.ReportAllocs()
	pod := tpusim.MustPod(tpusim.TPUv6e(), 4)
	c, err := icross.Compile(pod, icross.SetD())
	if err != nil {
		b.Fatal(err)
	}
	var s *icross.Schedule
	for i := 0; i < b.N; i++ {
		s = c.LowerHEMult()
	}
	b.ReportMetric(s.Total*1e6, "sim_mult_us")
	b.ReportMetric(s.Collective*1e6, "sim_ici_us")
}

// BenchmarkGPUNodeSchedule times GPU-node lowering through the same
// unified Compile path: an 8-GPU H100 NVSwitch node next to
// BenchmarkPodSchedule's 4-core pod, the cross-hardware smoke pair.
func BenchmarkGPUNodeSchedule(b *testing.B) {
	b.ReportAllocs()
	node := gpusim.MustNode(gpusim.H100(), 8)
	c, err := icross.Compile(node, icross.SetD())
	if err != nil {
		b.Fatal(err)
	}
	var s *icross.Schedule
	for i := 0; i < b.N; i++ {
		s = c.LowerHEMult()
	}
	b.ReportMetric(s.Total*1e6, "sim_mult_us")
	b.ReportMetric(s.Collective*1e6, "sim_nvlink_us")
}

// BenchmarkParallelNTT times the host-side limb-parallel NTT worker
// pool (real wall time — the `go test -bench` comparison of the
// Parallelism option).
func BenchmarkParallelNTT(b *testing.B) {
	b.ReportAllocs()
	n := 1 << 14
	limbs := 16
	primes, err := modarith.GenerateNTTPrimes(28, uint64(n), limbs)
	if err != nil {
		b.Fatal(err)
	}
	rg := ring.MustRing(n, primes)
	rng := rand.New(rand.NewSource(9))
	src := ring.NewPoly(limbs, n)
	for i := range src.Coeffs {
		for k := range src.Coeffs[i] {
			src.Coeffs[i][k] = rng.Uint64() % primes[i]
		}
	}
	for _, workers := range []int{1, 2, ring.DefaultParallelism()} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			rp := rg.WithParallelism(workers)
			buf := src.CopyNew()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rp.NTT(buf)
				rp.INTT(buf)
			}
		})
	}
}

// BenchmarkParallelBATMatMul times the row-sharded BAT matmul pipeline
// against the serial path (real wall time).
func BenchmarkParallelBATMatMul(b *testing.B) {
	b.ReportAllocs()
	m := modarith.MustModulus(268369921)
	rng := rand.New(rand.NewSource(10))
	h, v, w := 256, 128, 128
	a := make([]uint64, h*v)
	x := make([]uint64, v*w)
	for i := range a {
		a[i] = rng.Uint64() % m.Q
	}
	for i := range x {
		x[i] = rng.Uint64() % m.Q
	}
	plan, err := bat.OfflineCompileLeft(m, a, h, v)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, bat.DefaultParallelism()} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.MulParallel(x, w, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBATScalar times the three scalar-multiplication routes the
// paper contrasts (Fig. 7, Fig. 16).
func BenchmarkBATScalar(b *testing.B) {
	b.ReportAllocs()
	m := modarith.MustModulus(268369921)
	plan, err := bat.DirectScalarBAT(m, 123456789%m.Q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("BAT_dense", func(b *testing.B) {
		b.ReportAllocs()
		var s uint64
		for i := 0; i < b.N; i++ {
			s += plan.Mul(uint64(i))
		}
		_ = s
	})
	b.Run("sparse_toeplitz", func(b *testing.B) {
		b.ReportAllocs()
		var s uint64
		for i := 0; i < b.N; i++ {
			s += bat.SparseScalarMul(m, 123456789%m.Q, uint64(i)%m.Q)
		}
		_ = s
	})
	b.Run("conv1d_fallback", func(b *testing.B) {
		b.ReportAllocs()
		var s uint64
		for i := 0; i < b.N; i++ {
			s += bat.Conv1DScalarMul(m, 123456789%m.Q, uint64(i)%m.Q)
		}
		_ = s
	})
}
