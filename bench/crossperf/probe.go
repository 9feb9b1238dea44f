package main

import (
	"fmt"
	"math/rand"
	"time"

	"cross"
	"cross/internal/ckks"
	icross "cross/internal/cross"
	"cross/internal/modarith"
	"cross/internal/ring"
	"cross/internal/rns"
	"cross/internal/sweep"
)

// probeLayers times the ring, rns and modarith calls the key switch is
// built from, on the workload's own ring and primes, and returns the
// median of reps repetitions of each: per limb for the ring transforms,
// per call at the ModUp and ModDown shapes for the basis conversions,
// and per N-vector for the modular vector ops.
func probeLayers(p *ckks.Parameters, reps int) (map[string]float64, error) {
	rq := p.RingQP
	n, limbs := p.N(), rq.L()
	rng := rand.New(rand.NewSource(1))
	poly, out := ring.NewPoly(limbs, n), ring.NewPoly(limbs, n)
	for i, row := range poly.Coeffs {
		for k := range row {
			row[k] = rng.Uint64() % rq.Moduli[i].Q
		}
	}
	timeMedian := func(per float64, f func()) float64 {
		xs := make([]float64, reps)
		for k := range xs {
			t := time.Now()
			f()
			xs[k] = us(time.Since(t)) / per
		}
		return median(xs)
	}
	perLimb := float64(limbs)

	res := map[string]float64{}
	res["ring.ntt_us"] = timeMedian(perLimb, func() {
		for i := 0; i < limbs; i++ {
			rq.NTTLimb(i, poly.Coeffs[i])
		}
	})
	res["ring.intt_us"] = timeMedian(perLimb, func() {
		for i := 0; i < limbs; i++ {
			rq.INTTLimb(i, poly.Coeffs[i])
		}
	})
	idx, err := rq.AutomorphismNTTIndex(rq.GaloisElementForRotation(1))
	if err != nil {
		return nil, err
	}
	res["ring.automorph_us"] = timeMedian(perLimb, func() { rq.AutomorphismNTT(poly, out, idx) })

	// ModUp extends the first digit (Alpha limbs) to the rest of Q and
	// to P at the top level; ModDown brings P back to all of Q.
	q, sp := p.QPrimes, p.PPrimes
	for _, c := range []struct {
		name     string
		from, to []uint64
	}{
		{"rns.modup_us", q[:p.Alpha], append(append([]uint64{}, q[p.Alpha:]...), sp...)},
		{"rns.moddown_us", sp, q},
	} {
		from, err := rns.NewBasis(c.from)
		if err != nil {
			return nil, err
		}
		to, err := rns.NewBasis(c.to)
		if err != nil {
			return nil, err
		}
		conv, err := rns.NewConverter(from, to)
		if err != nil {
			return nil, err
		}
		in, dst := poly.Coeffs[:len(c.from)], rns.AllocLimbs(len(c.to), n)
		res[c.name] = timeMedian(1, func() { conv.ConvertApproxInto(dst, in) })
	}

	m := rq.Moduli[0]
	a, b, dst := poly.Coeffs[0], make([]uint64, n), make([]uint64, n)
	for k := range b {
		b[k] = rng.Uint64() % m.Q
	}
	res["modarith.vecmul_us"] = timeMedian(perLimb, func() {
		for i := 0; i < limbs; i++ {
			m.VecMulMod(dst, a, b, modarith.Barrett)
		}
	})
	res["modarith.vecadd_us"] = timeMedian(perLimb, func() {
		for i := 0; i < limbs; i++ {
			m.VecAddMod(dst, a, b)
		}
	})
	return res, nil
}

// tour calls each of the nine ckks entry points the benchmark measures
// (Encode, Encrypt, MulRelin, Rescale, Rotate, MulPlain, Add, Decrypt,
// Decode) on a fresh Context at the workload's parameter set, inside
// spans in ln, and checks 2·t ⊙ rotate(x ⊙ y, 1) against float64. It
// supplies the ckks.*_ms medians of calls the workload's requests do
// not make, and returns the Context the layer probes use.
func tour(w workload, seed int64, ln *lane, reps int) (*cross.Context, []float64, error) {
	ctx, err := cross.NewContext(cross.ContextOptions{
		LogN: w.logN, Limbs: w.limbs, Dnum: w.dnum, Seed: ctxSeed(seed, 9), Rotations: []int{1},
	})
	if err != nil {
		return nil, nil, err
	}
	ev := ctx.Evaluator
	rng := rand.New(rand.NewSource(seed + 9))
	n := ctx.Slots()
	tap := complex(rng.Float64()*2-1, 0)
	tapVals := make([]complex128, n)
	for j := range tapVals {
		tapVals[j] = tap
	}
	// The tap multiplies the rescaled product, one level below the top.
	tapPt, err := ctx.Encoder.EncodeAtLevel(tapVals, ctx.Params.MaxLevel()-1, ctx.Params.Scale)
	if err != nil {
		return nil, nil, err
	}

	var bits []float64
	for k := 0; k < reps; k++ {
		x, y := randomVec(rng, n), randomVec(rng, n)
		root := ln.begin("tour", -1, k)
		enc := func(v []complex128) (*cross.Ciphertext, error) {
			s := ln.begin("ckks.encode", root, k)
			pt, err := ctx.Encoder.Encode(v)
			ln.end(s)
			if err != nil {
				return nil, err
			}
			s = ln.begin("ckks.encrypt", root, k)
			ct := ctx.Encryptor.Encrypt(pt)
			ln.end(s)
			return ct, nil
		}
		a, err := enc(x)
		if err != nil {
			return nil, nil, err
		}
		b, err := enc(y)
		if err != nil {
			return nil, nil, err
		}
		ct, err := timedCT(ln, "ckks.mulrelin", root, k, func() (*cross.Ciphertext, error) { return ev.MulRelin(a, b) })
		if err == nil {
			ct, err = timedCT(ln, "ckks.rescale", root, k, func() (*cross.Ciphertext, error) { return ev.Rescale(ct) })
		}
		if err == nil {
			ct, err = timedCT(ln, "ckks.rotate", root, k, func() (*cross.Ciphertext, error) { return ev.Rotate(ct, 1) })
		}
		if err == nil {
			ct, err = timedCT(ln, "ckks.mulplain", root, k, func() (*cross.Ciphertext, error) { return ev.MulPlain(ct, tapPt) })
		}
		if err == nil {
			ct, err = timedCT(ln, "ckks.add", root, k, func() (*cross.Ciphertext, error) { return ev.Add(ct, ct) })
		}
		if err != nil {
			return nil, nil, fmt.Errorf("tour: %w", err)
		}
		s := ln.begin("ckks.decrypt", root, k)
		pt := ctx.Decryptor.Decrypt(ct)
		ln.end(s)
		s = ln.begin("ckks.decode", root, k)
		got := ctx.Encoder.Decode(pt)
		ln.end(s)
		ln.end(root)

		want := make([]complex128, n)
		for j := range want {
			want[j] = 2 * tap * x[(j+1)%n] * y[(j+1)%n]
		}
		bits = append(bits, precisionBits(got, want))
	}
	return ctx, bits, nil
}

// lowerServeCells lowers every (fleet group, mix class, batch size) cell
// that cross.Serve prices for cfg, through one fresh schedule cache as
// Serve does, but on one goroutine, and returns the number of cells. It
// is the benchmark's own copy of Serve's pricing loop, so what it counts
// is fixed by the scenario, not by what Serve did.
func lowerServeCells(cfg cross.ServeConfig) (int, error) {
	params, err := icross.NamedSet(cfg.Set)
	if err != nil {
		return 0, err
	}
	cache := icross.NewScheduleCache()
	cells := 0
	for _, g := range cfg.Fleet {
		for _, m := range cfg.Mix {
			for b := 1; b <= cfg.MaxBatch; b++ {
				tgt, err := cross.TargetByName(g.Device, g.Cores)
				if err != nil {
					return cells, err
				}
				comp, err := cross.Compile(tgt, params)
				if err != nil {
					return cells, err
				}
				prog, err := sweep.BuildProgram(comp, m.Workload)
				if err != nil {
					return cells, err
				}
				prog.WithCache(cache).Batch(b).Lower()
				cells++
			}
		}
	}
	return cells, nil
}

// probeCross returns the median wall time, in ms, of a cold serial pass
// over serve-sim's priced cells, and the number of cells.
func probeCross(seed int64, reps int) (float64, int, error) {
	cfg, err := serveConfig(seed)
	if err != nil {
		return 0, 0, err
	}
	xs := make([]float64, reps)
	cells := 0
	for k := range xs {
		t := time.Now()
		if cells, err = lowerServeCells(cfg); err != nil {
			return 0, 0, err
		}
		xs[k] = ms(time.Since(t))
	}
	return median(xs), cells, nil
}

// sweepRecords is the size of the full default sweep: 4 parameter sets
// × 7 registered devices × 5 core counts × 5 workloads.
const sweepRecords = 700

// probeSweep returns the median wall time, in seconds, of reps full cold
// sweeps at two workers.
func probeSweep(reps int) (float64, error) {
	xs := make([]float64, reps)
	for k := range xs {
		t := time.Now()
		recs, err := cross.Sweep(cross.SweepConfig{Parallel: 2})
		if err != nil {
			return 0, err
		}
		if len(recs) != sweepRecords {
			return 0, fmt.Errorf("sweep: %d records, want %d", len(recs), sweepRecords)
		}
		xs[k] = time.Since(t).Seconds()
	}
	return median(xs), nil
}
