// Command nttplanner explores the design space of the layout-invariant
// 3-step NTT (§V-A's configuration sweep): for every TPU generation it
// sweeps the (R, C) matrix split and the batch size, printing the
// throughput surface and the configuration CROSS would select. It also
// runs the functional plan once per split to re-verify correctness
// against the radix-2 oracle before trusting any number.
//
// Run with: go run ./examples/nttplanner [-logn 13]
package main

import (
	"flag"
	"fmt"
	"log"

	"cross"
)

func main() {
	logN := flag.Int("logn", 13, "ring degree exponent (12–16)")
	flag.Parse()
	if *logN < 8 || *logN > 16 {
		log.Fatalf("logn %d out of range [8, 16]", *logN)
	}
	n := 1 << *logN

	// Functional verification at a testable size: every split must
	// reproduce the radix-2 output bit-exactly.
	verifyN := 1 << 10
	primes, err := cross.NTTFriendlyPrimes(28, uint64(verifyN), 1)
	if err != nil {
		log.Fatal(err)
	}
	rg, err := cross.NewRing(verifyN, primes)
	if err != nil {
		log.Fatal(err)
	}
	for r := 4; r <= verifyN/4; r <<= 1 {
		plan, err := cross.NewMatNTTPlan(rg, r, verifyN/r, cross.LayoutBitRev)
		if err != nil {
			log.Fatal(err)
		}
		in := make([]uint64, verifyN)
		for i := range in {
			in[i] = uint64(i * 31)
		}
		got := make([]uint64, verifyN)
		plan.ForwardLimb(0, in, got)
		want := append([]uint64(nil), in...)
		rg.NTTLimb(0, want)
		for i := range got {
			if got[i] != want[i] {
				log.Fatalf("split (%d,%d): MAT NTT diverges from radix-2 at slot %d", r, verifyN/r, i)
			}
		}
	}
	fmt.Printf("functional check: all (R,C) splits at N=%d match radix-2 bit-exactly\n\n", verifyN)

	// Throughput planning surface.
	specs := []cross.DeviceSpec{cross.TPUv4(), cross.TPUv5e(), cross.TPUv5p(), cross.TPUv6e()}
	fmt.Printf("NTT planning surface at N=2^%d (single tensor core, kNTT/s at best batch):\n\n", *logN)
	fmt.Printf("%-8s", "R×C")
	for _, s := range specs {
		fmt.Printf("%12s", s.Name)
	}
	fmt.Println()
	type bestCfg struct {
		r, c, batch int
		thr         float64
	}
	best := map[string]bestCfg{}
	for r := 64; r <= 1024 && n/r >= 64; r <<= 1 {
		c := n / r
		fmt.Printf("%-8s", fmt.Sprintf("%dx%d", r, c))
		for _, spec := range specs {
			p := cross.SetA()
			p.LogN = *logN
			p.R, p.C = r, c
			comp, err := cross.Compile(cross.NewDevice(spec), p)
			if err != nil {
				log.Fatal(err)
			}
			batch, thr := comp.BestNTTBatch(128)
			fmt.Printf("%9.0f b%-2d", thr/1e3, batch)
			if b, ok := best[spec.Name]; !ok || thr > b.thr {
				best[spec.Name] = bestCfg{r, c, batch, thr}
			}
		}
		fmt.Println()
	}
	fmt.Println("\nselected configurations:")
	for _, spec := range specs {
		b := best[spec.Name]
		fmt.Printf("  %-8s R=%d C=%d batch=%d  → %.0f kNTT/s/core\n",
			spec.Name, b.r, b.c, b.batch, b.thr/1e3)
	}
	fmt.Println("\n(paper §V-A pins R=128 for standalone NTT to fill the 128 lanes;")
	fmt.Println(" the sweep shows why: splits with R or C below the lane count pay tile padding.)")
}
