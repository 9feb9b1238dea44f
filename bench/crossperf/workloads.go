package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"cross"
	"cross/internal/ckks"
)

// workload is one set of inputs the benchmark runs. Every workload is one
// closed-loop client; the README says why each one is here.
type workload struct {
	name string
	// scaled says the workload's times are scaled by the reference
	// kernel (hostref.go): true for the HE workloads, whose
	// throughput-bound arithmetic slows with the host as the kernel does.
	scaled bool
	// logN, limbs and dnum fix the CKKS parameter set the layer probes
	// and the op tour run at. serve-sim runs no HE, so it probes Set A.
	logN, limbs, dnum int
	// floor is the least precision, in bits, a checked HE output may
	// have; outputs below it count as failed. 0 means no HE output. At
	// the paper's 28-bit scale, seeds 1–6 read 6.6–9.5 bits on
	// conv-seta, 6.1–9.3 on keyswitch-setc and 10.5–11.1 on
	// client-setb, so the floors sit about two bits below: they catch
	// broken arithmetic, not an unlucky key.
	floor float64
	// setups is how many times a run sets the workload up; setup_s is
	// their median. Short set-ups repeat more, so that each run spends
	// about a second or more on them and one slow page-fault burst does
	// not move the median.
	setups int
	setup  func(seed int64) (runner, error)
}

var workloads = []workload{
	{name: "conv-seta", scaled: true, logN: 12, limbs: 4, dnum: 3, floor: 4, setups: 9, setup: newConv},
	{name: "keyswitch-setc", scaled: true, logN: 14, limbs: 15, dnum: 3, floor: 4, setups: 5, setup: newKeyswitch},
	{name: "client-setb", scaled: true, logN: 13, limbs: 8, dnum: 3, floor: 8, setups: 25, setup: newClient},
	{name: "serve-sim", logN: 12, limbs: 4, dnum: 3, setups: 25, setup: newServe},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// ctxSeed derives a nonzero ContextOptions.Seed for one Context: k is 0
// for a workload's own, 9 for the op tour's.
func ctxSeed(seed int64, k int) int64 { return seed*16 + int64(k) + 1 }

func randomVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

// precisionBits is −log2 of the largest slot error over want's slots.
// An exact result reads as 64 bits.
func precisionBits(got, want []complex128) float64 {
	worst := 0.0
	for i := range want {
		worst = math.Max(worst, cmplx.Abs(got[i]-want[i]))
	}
	return -math.Log2(math.Max(worst, 0x1p-64))
}

// timedCT runs one ciphertext-valued call inside a span.
func timedCT(ln *lane, name string, parent, req int, op func() (*cross.Ciphertext, error)) (*cross.Ciphertext, error) {
	s := ln.begin(name, parent, req)
	ct, err := op()
	ln.end(s)
	return ct, err
}

// outputs is what the client keeps for verify: every output it was asked
// to keep, and its last one.
type outputs[T any] struct {
	kept []T
	last T
	reqs int
}

func (o *outputs[T]) add(v T, keep bool) {
	o.reqs++
	o.last = v
	if keep {
		o.kept = append(o.kept, v)
	}
}

// take returns the kept outputs and the last one, and forgets the kept
// ones.
func (o *outputs[T]) take() []T {
	out := append(o.kept, o.last)
	o.kept = nil
	return out
}

// kernelTally turns an evaluator's cumulative kernel counters into
// per-request counts since the previous call.
type kernelTally struct {
	base ckks.KernelCounters
	reqs int
}

func (t *kernelTally) counts(ev *ckks.Evaluator, reqs int) map[string]float64 {
	kc := ev.Kc
	n := float64(max(reqs-t.reqs, 1))
	out := map[string]float64{
		"ckks.ntt_limbs":   float64(kc.NTTLimbs-t.base.NTTLimbs) / n,
		"ckks.intt_limbs":  float64(kc.INTTLimbs-t.base.INTTLimbs) / n,
		"ckks.bconv_calls": float64(kc.BConvCalls-t.base.BConvCalls) / n,
		"ckks.vecmul_n":    float64(kc.VecMulN-t.base.VecMulN) / n,
		"ckks.vecadd_n":    float64(kc.VecAddN-t.base.VecAddN) / n,
		"ckks.automorph":   float64(kc.Automorph-t.base.Automorph) / n,
	}
	t.base, t.reqs = kc, reqs
	return out
}

// ---- conv-seta ----

// convSide is the image side: 64 pixels packed into the first slots,
// as in examples/mnist.
const convSide = 8

// convShifts are the slot rotations of the 3×3 taps, row-major.
var convShifts = func() (s [9]int) {
	for dy := 0; dy < 3; dy++ {
		for dx := 0; dx < 3; dx++ {
			s[dy*3+dx] = dy*convSide + dx
		}
	}
	return s
}()

// convImages is the number of distinct encrypted images.
const convImages = 4

type convOut struct {
	ct  *cross.Ciphertext
	img int
}

type convRunner struct {
	ctx    *cross.Context
	inputs []*cross.Ciphertext
	want   [][]complex128 // plaintext reference per image
	taps   [9]*cross.Plaintext
	out    outputs[convOut]
	tally  kernelTally
}

// convPlain is the float64 reference of the encrypted schedule: the
// rotations act on the whole slot vector (image first, zeros after), so
// the reference convolves the same padded vector, then squares.
func convPlain(img []float64, kernel [9]float64, slots int) []complex128 {
	padded := make([]float64, slots)
	copy(padded, img)
	out := make([]complex128, len(img))
	for p := range img {
		var acc float64
		for t, shift := range convShifts {
			acc += kernel[t] * padded[(p+shift)%slots]
		}
		out[p] = complex(acc*acc, 0)
	}
	return out
}

func newConv(seed int64) (runner, error) {
	ctx, err := cross.NewContext(cross.ContextOptions{
		LogN: 12, Limbs: 4, Dnum: 3, Seed: ctxSeed(seed, 0), Rotations: convShifts[1:],
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	r := &convRunner{ctx: ctx}
	var kernel [9]float64
	for t := range kernel {
		kernel[t] = rng.Float64()*2 - 1
		tap := make([]complex128, ctx.Slots())
		for i := range tap {
			tap[i] = complex(kernel[t], 0)
		}
		if r.taps[t], err = ctx.Encoder.Encode(tap); err != nil {
			return nil, err
		}
	}
	for k := 0; k < convImages; k++ {
		img := make([]float64, convSide*convSide)
		slots := make([]complex128, ctx.Slots())
		for i := range img {
			img[i] = rng.Float64()
			slots[i] = complex(img[i], 0)
		}
		ct, err := ctx.EncryptValues(slots)
		if err != nil {
			return nil, err
		}
		r.inputs = append(r.inputs, ct)
		r.want = append(r.want, convPlain(img, kernel, ctx.Slots()))
	}
	return r, nil
}

// request is the examples/mnist Conv3×3 + square: 8 Rotate, 9 MulPlain
// with pre-encoded taps, 8 Add, Rescale, MulRelin, Rescale.
func (r *convRunner) request(i int, ln *lane, keep bool) error {
	ev := r.ctx.Evaluator
	img := i % convImages
	ct := r.inputs[img]
	root := ln.begin("request", -1, i)
	defer ln.end(root)

	var acc *cross.Ciphertext
	for t, shift := range convShifts {
		rot := ct
		var err error
		if shift != 0 {
			if rot, err = timedCT(ln, "ckks.rotate", root, i, func() (*cross.Ciphertext, error) { return ev.Rotate(ct, shift) }); err != nil {
				return err
			}
		}
		term, err := timedCT(ln, "ckks.mulplain", root, i, func() (*cross.Ciphertext, error) { return ev.MulPlain(rot, r.taps[t]) })
		if err != nil {
			return err
		}
		if acc == nil {
			acc = term
		} else if acc, err = timedCT(ln, "ckks.add", root, i, func() (*cross.Ciphertext, error) { return ev.Add(acc, term) }); err != nil {
			return err
		}
	}
	conv, err := timedCT(ln, "ckks.rescale", root, i, func() (*cross.Ciphertext, error) { return ev.Rescale(acc) })
	if err != nil {
		return err
	}
	sq, err := timedCT(ln, "ckks.mulrelin", root, i, func() (*cross.Ciphertext, error) { return ev.MulRelin(conv, conv) })
	if err != nil {
		return err
	}
	out, err := timedCT(ln, "ckks.rescale", root, i, func() (*cross.Ciphertext, error) { return ev.Rescale(sq) })
	if err != nil {
		return err
	}
	r.out.add(convOut{ct: out, img: img}, keep)
	return nil
}

func (r *convRunner) verify() ([]float64, int) {
	var bits []float64
	for _, o := range r.out.take() {
		bits = append(bits, precisionBits(r.ctx.DecryptValues(o.ct), r.want[o.img]))
	}
	return bits, 0
}

func (r *convRunner) counts() map[string]float64 {
	return r.tally.counts(r.ctx.Evaluator, r.out.reqs)
}

// ---- keyswitch-setc ----

// ksInputs is the number of distinct top-level ciphertext pairs.
const ksInputs = 2

type ksOut struct {
	ct   *cross.Ciphertext
	pair int
}

type ksRunner struct {
	ctx   *cross.Context
	a, b  []*cross.Ciphertext
	want  [][]complex128 // rotate(x ⊙ y, 1) per pair
	out   outputs[ksOut]
	tally kernelTally
}

func newKeyswitch(seed int64) (runner, error) {
	ctx, err := cross.NewContext(cross.ContextOptions{
		LogN: 14, Limbs: 15, Dnum: 3, Seed: ctxSeed(seed, 0), Rotations: []int{1},
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	r := &ksRunner{ctx: ctx}
	n := ctx.Slots()
	for k := 0; k < ksInputs; k++ {
		x, y := randomVec(rng, n), randomVec(rng, n)
		a, err := ctx.EncryptValues(x)
		if err != nil {
			return nil, err
		}
		b, err := ctx.EncryptValues(y)
		if err != nil {
			return nil, err
		}
		want := make([]complex128, n)
		for j := range want {
			want[j] = x[(j+1)%n] * y[(j+1)%n]
		}
		r.a, r.b, r.want = append(r.a, a), append(r.b, b), append(r.want, want)
	}
	return r, nil
}

// request is MulRelin → Rescale → Rotate(1) on top-level ciphertexts.
func (r *ksRunner) request(i int, ln *lane, keep bool) error {
	ev := r.ctx.Evaluator
	pair := i % ksInputs
	root := ln.begin("request", -1, i)
	defer ln.end(root)
	prod, err := timedCT(ln, "ckks.mulrelin", root, i, func() (*cross.Ciphertext, error) { return ev.MulRelin(r.a[pair], r.b[pair]) })
	if err != nil {
		return err
	}
	rs, err := timedCT(ln, "ckks.rescale", root, i, func() (*cross.Ciphertext, error) { return ev.Rescale(prod) })
	if err != nil {
		return err
	}
	out, err := timedCT(ln, "ckks.rotate", root, i, func() (*cross.Ciphertext, error) { return ev.Rotate(rs, 1) })
	if err != nil {
		return err
	}
	r.out.add(ksOut{ct: out, pair: pair}, keep)
	return nil
}

func (r *ksRunner) verify() ([]float64, int) {
	var bits []float64
	for _, o := range r.out.take() {
		bits = append(bits, precisionBits(r.ctx.DecryptValues(o.ct), r.want[o.pair]))
	}
	return bits, 0
}

func (r *ksRunner) counts() map[string]float64 {
	return r.tally.counts(r.ctx.Evaluator, r.out.reqs)
}

// ---- client-setb ----

// clientVecs is the number of distinct input vectors.
const clientVecs = 8

type clientOut struct {
	got []complex128
	vec int
}

type clientRunner struct {
	ctx   *cross.Context
	vecs  [][]complex128
	out   outputs[clientOut]
	tally kernelTally
}

func newClient(seed int64) (runner, error) {
	ctx, err := cross.NewContext(cross.ContextOptions{LogN: 13, Limbs: 8, Dnum: 3, Seed: ctxSeed(seed, 0)})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	r := &clientRunner{ctx: ctx}
	for k := 0; k < clientVecs; k++ {
		r.vecs = append(r.vecs, randomVec(rng, ctx.Slots()))
	}
	return r, nil
}

// request is the facade's EncryptValues then DecryptValues, called as
// their four steps so each gets its own span.
func (r *clientRunner) request(i int, ln *lane, keep bool) error {
	ctx := r.ctx
	v := i % clientVecs
	root := ln.begin("request", -1, i)
	defer ln.end(root)

	s := ln.begin("ckks.encode", root, i)
	pt, err := ctx.Encoder.Encode(r.vecs[v])
	ln.end(s)
	if err != nil {
		return err
	}
	s = ln.begin("ckks.encrypt", root, i)
	ct := ctx.Encryptor.Encrypt(pt)
	ln.end(s)
	s = ln.begin("ckks.decrypt", root, i)
	dec := ctx.Decryptor.Decrypt(ct)
	ln.end(s)
	s = ln.begin("ckks.decode", root, i)
	got := ctx.Encoder.Decode(dec)
	ln.end(s)
	r.out.add(clientOut{got: got, vec: v}, keep)
	return nil
}

func (r *clientRunner) verify() ([]float64, int) {
	var bits []float64
	for _, o := range r.out.take() {
		bits = append(bits, precisionBits(o.got, r.vecs[o.vec]))
	}
	return bits, 0
}

func (r *clientRunner) counts() map[string]float64 {
	return r.tally.counts(r.ctx.Evaluator, r.out.reqs)
}

// ---- serve-sim ----

// serveCountRuns is how many runs, from run 0, the serve counts cover:
// a fixed set, so a faster commit that completes more runs reports the
// same counts.
const serveCountRuns = 10

type serveCounts struct {
	requests, batches, retries, hedges, crashes int
}

type serveRunner struct {
	seed   int64
	base   cross.ServeConfig
	kept   map[int]*cross.ServeResult
	first  [serveCountRuns]*serveCounts
	failed int // runs whose terminal states do not partition the requests
}

// serveFleet is a heterogeneous fleet: four 1-core TPUv6e pods and one
// 8-GPU H100 node.
const serveFleet = "TPUv6e:1:4+H100:8:1"

func serveConfig(seed int64) (cross.ServeConfig, error) {
	fleet, err := cross.ServeParseFleet(serveFleet)
	if err != nil {
		return cross.ServeConfig{}, err
	}
	return cross.ServeConfig{
		Fleet:    fleet,
		Set:      "B",
		Policy:   cross.ServeJSQ,
		HorizonS: 10,
		MaxBatch: 8,
		Classes: []cross.ServeSLOClass{
			{Name: "interactive", Priority: 10, DeadlineS: 0.2},
			{Name: "batch"},
		},
		Mix: []cross.ServeMixEntry{
			{Workload: "HE-Mult", Weight: 0.5, Class: "interactive"},
			{Workload: "Rotate", Weight: 0.3, Class: "interactive"},
			{Workload: "MNIST", Weight: 0.2, Class: "batch"},
		},
		Faults:   &cross.FaultConfig{Seed: seed, MTBFS: 1, MaxRetries: 3, Hedge: true, DeadlineS: 0.5},
		Parallel: 2,
	}, nil
}

func newServe(seed int64) (runner, error) {
	base, err := serveConfig(seed)
	if err != nil {
		return nil, err
	}
	return &serveRunner{seed: seed, base: base, kept: make(map[int]*cross.ServeResult)}, nil
}

// run is serve run i: the base scenario with arrival seed seed·1000+i.
func (r *serveRunner) run(i int) (*cross.ServeResult, error) {
	cfg := r.base
	cfg.Seed = r.seed*1000 + int64(i)
	return cross.Serve(cfg)
}

func (r *serveRunner) request(i int, ln *lane, keep bool) error {
	root := ln.begin("request", -1, i)
	s := ln.begin("serve.run", root, i)
	res, err := r.run(i)
	ln.end(s)
	ln.end(root)
	if err != nil {
		return err
	}
	a := res.Availability
	if a == nil || res.Completed+a.Shed+a.TimedOut+a.Failed != res.Requests {
		r.failed++
	}
	if i < serveCountRuns && r.first[i] == nil {
		c := &serveCounts{requests: res.Requests}
		for _, p := range res.Pods {
			c.batches += p.Batches
		}
		if a != nil {
			c.retries, c.hedges, c.crashes = a.Retries, a.Hedges, a.Crashes
		}
		r.first[i] = c
	}
	if keep {
		r.kept[i] = res
	}
	return nil
}

// verify re-runs every kept run and requires byte-identical JSON.
func (r *serveRunner) verify() ([]float64, int) {
	failed := r.failed
	for i, res := range r.kept {
		again, err := r.run(i)
		if err != nil {
			failed++
			continue
		}
		a, errA := json.Marshal(res)
		b, errB := json.Marshal(again)
		if errA != nil || errB != nil || string(a) != string(b) {
			failed++
		}
	}
	r.kept, r.failed = make(map[int]*cross.ServeResult), 0
	return nil, failed
}

func (r *serveRunner) counts() map[string]float64 {
	var sum serveCounts
	n := 0
	for _, c := range r.first {
		if c != nil {
			sum.requests += c.requests
			sum.batches += c.batches
			sum.retries += c.retries
			sum.hedges += c.hedges
			sum.crashes += c.crashes
			n++
		}
	}
	per := func(v int) float64 { return float64(v) / float64(max(n, 1)) }
	return map[string]float64{
		"serve.sim_requests": per(sum.requests),
		"serve.batches":      per(sum.batches),
		"serve.retries":      per(sum.retries),
		"serve.hedges":       per(sum.hedges),
		"serve.crashes":      per(sum.crashes),
	}
}
