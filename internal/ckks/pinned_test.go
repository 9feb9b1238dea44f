package ckks

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
)

// pinnedOutput is one operator's result in testdata/keyswitch_pinned.json:
// the SHA-256 of each ciphertext it returns (serialised with WriteTo)
// and the kernel counters it adds.
type pinnedOutput struct {
	SHA256 []string       `json:"sha256"`
	Kc     KernelCounters `json:"kernel_counters"`
}

// pinnedShapes are the (L, dnum) pairs the pinned digests cover; α
// divides none of them, so every level has a short last digit.
var pinnedShapes = [][2]int{{4, 3}, {8, 3}, {15, 4}}

// keySwitchOutputs runs every key-switching operator (and the plaintext
// ops and DropLevel, which share the output-allocation path) at logN 11
// over the given shape and returns each operator's pinned output, keyed
// by case/op.
func keySwitchOutputs(t *testing.T, logScale uint, l, dnum int) map[string]pinnedOutput {
	t.Helper()
	p := MustParameters(11, logScale, l, dnum)
	tc := newTestContextFor(t, p, []int{1, 3, 4})
	rng := rand.New(rand.NewSource(90))
	slots := p.Slots()
	pt1, _ := tc.enc.Encode(randomSlots(rng, slots))
	pt2, _ := tc.enc.Encode(randomSlots(rng, slots))
	ct1, ct2 := tc.ctr.Encrypt(pt1), tc.ctr.Encrypt(pt2)

	out := map[string]pinnedOutput{}
	pin := func(op string, f func() ([]*Ciphertext, error)) []*Ciphertext {
		t.Helper()
		tc.ev.ResetCounters()
		cts, err := f()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		o := pinnedOutput{Kc: tc.ev.Kc}
		for _, ct := range cts {
			var buf bytes.Buffer
			if _, err := ct.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			o.SHA256 = append(o.SHA256, fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())))
		}
		out[fmt.Sprintf("logScale%d/L%d/dnum%d/%s", logScale, l, dnum, op)] = o
		return cts
	}
	one := func(f func() (*Ciphertext, error)) func() ([]*Ciphertext, error) {
		return func() ([]*Ciphertext, error) {
			ct, err := f()
			return []*Ciphertext{ct}, err
		}
	}
	pin("MulPlain", one(func() (*Ciphertext, error) { return tc.ev.MulPlain(ct1, pt2) }))
	pin("AddPlain", one(func() (*Ciphertext, error) { return tc.ev.AddPlain(ct1, pt2) }))
	pin("DropLevel", one(func() (*Ciphertext, error) { return tc.ev.DropLevel(ct1, l-3) }))
	pin("RotateTop", one(func() (*Ciphertext, error) { return tc.ev.Rotate(ct1, 1) }))
	prod := pin("MulRelin", one(func() (*Ciphertext, error) { return tc.ev.MulRelin(ct1, ct2) }))[0]
	res := pin("Rescale", one(func() (*Ciphertext, error) { return tc.ev.Rescale(prod) }))[0]
	pin("Rotate", one(func() (*Ciphertext, error) { return tc.ev.Rotate(res, 1) }))
	pin("Conjugate", one(func() (*Ciphertext, error) { return tc.ev.Conjugate(res) }))
	pin("RotateHoisted", func() ([]*Ciphertext, error) { return tc.ev.RotateHoisted(res, []int{0, 1, 3}) })

	diagonals := map[int][]complex128{}
	for _, d := range []int{0, 1, 5} {
		diagonals[d] = randomSlots(rng, slots)
	}
	lt, err := tc.ev.NewLinearTransform(tc.enc, diagonals, res.Level, p.Scale)
	if err != nil {
		t.Fatal(err)
	}
	pin("EvalLinearTransform", one(func() (*Ciphertext, error) { return tc.ev.EvalLinearTransform(res, lt) }))
	return out
}

// TestKeySwitchOutputsPinned holds MulRelin, Rotate, Conjugate,
// RotateHoisted and EvalLinearTransform (with MulPlain, AddPlain,
// DropLevel and Rescale around them) to the ciphertext digests and
// kernel counters in testdata/keyswitch_pinned.json, at logN 11 over
// (L, dnum) ∈ {(4, 3), (8, 3), (15, 4)} on the lazy (logScale 28) and
// per-digit (logScale 40) inner products. Any reordering of the key
// switch must leave every digest and count as it is.
func TestKeySwitchOutputsPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/keyswitch_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]pinnedOutput
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := map[string]pinnedOutput{}
	for _, logScale := range []uint{28, 40} {
		for _, s := range pinnedShapes {
			p := MustParameters(11, logScale, s[0], s[1])
			if wantLazy := logScale == 28; p.lazyKeyIP != wantLazy {
				t.Fatalf("logScale %d L %d dnum %d: lazyKeyIP = %v", logScale, s[0], s[1], p.lazyKeyIP)
			}
			for k, v := range keySwitchOutputs(t, logScale, s[0], s[1]) {
				got[k] = v
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d pinned outputs, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: not produced", k)
			continue
		}
		if g.Kc != w.Kc {
			t.Errorf("%s: kernel counters %+v, want %+v", k, g.Kc, w.Kc)
		}
		if fmt.Sprint(g.SHA256) != fmt.Sprint(w.SHA256) {
			t.Errorf("%s: digests %v, want %v", k, g.SHA256, w.SHA256)
		}
	}
}
