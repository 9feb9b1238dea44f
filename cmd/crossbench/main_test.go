package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestSubcommands drives the cheap invocations, including every serve,
// chaos and plan shape CI smoke-runs, and checks each exits 0 with a
// valid record.
func TestSubcommands(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(trace, []byte("t,workload\n0.001,HE-Mult\n0.002,Rotate\n0.004,HE-Mult\n0.006,MNIST\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"list", "-json"},
		{"experiment", "Table V"},
		{"versus", "-set", "D", "TPUv6e-16,H100-8", "-json"},
		{"prof", "-op", "mult", "-cores", "4"},
		{"ntt", "-logn", "12"},
		{"serve", "-horizon", "0.02", "-json"},
		{"serve", "-device", "H100", "-cores", "8", "-horizon", "0.02", "-json"},
		{"serve", "-horizon", "0.02", "-fleet", "TPUv6e:1:2+H100:1:1", "-policy", "cheapest", "-json"},
		{"serve", "-horizon", "0.02", "-trace", trace, "-json"},
		{"serve", "-horizon", "0.02", "-stats", "streaming", "-classes", "interactive:10:0.05,batch:0",
			"-mix", "HE-Mult=0.6@interactive,MNIST=0.4@batch", "-json"},
		{"serve", "-horizon", "0.02", "-mtbf", "0.01", "-straggler", "6", "-batcherr", "0.05",
			"-deadline", "0.02", "-retries", "3", "-hedge", "-shed", "64", "-json"},
		{"chaos", "-horizon", "0.02", "-retries", "2", "-deadline", "0.02", "-json"},
		{"plan", "-slo", "0.05", "-horizon", "0.02", "-fleets", "TPUv6e:1:2,TPUv6e:1:1+H100:1:1", "-json"},
	} {
		code, stdout, stderr := runArgs(args...)
		if code != 0 {
			t.Errorf("%q: exit %d, stderr %q", args, code, stderr)
			continue
		}
		if args[len(args)-1] == "-json" && !json.Valid([]byte(stdout)) {
			t.Errorf("%q: stdout is not valid JSON:\n%s", args, stdout)
		}
		if stdout == "" {
			t.Errorf("%q: empty stdout", args)
		}
	}
}

// TestFaultFlagsEnableFaults: serve with no fault flags is the
// fault-free record; any fault flag turns the fault layer on.
func TestFaultFlagsEnableFaults(t *testing.T) {
	_, plain, _ := runArgs("serve", "-horizon", "0.02", "-json")
	_, faulty, _ := runArgs("serve", "-horizon", "0.02", "-mtbf", "0.01", "-json")
	if strings.Contains(plain, `"faults"`) || !strings.Contains(faulty, `"faults"`) {
		t.Errorf("fault section: plain has it = %v, -mtbf has it = %v; want false, true",
			strings.Contains(plain, `"faults"`), strings.Contains(faulty, `"faults"`))
	}
}

// TestRejects: misplaced flags, unknown subcommands and out-of-range
// values exit non-zero and name the problem on stderr, without output.
func TestRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"serve", "-threshold", "0.1"}, "-threshold"},
		{[]string{"sweep", "-mtbf", "1"}, "-mtbf"},
		{[]string{"list", "-device", "H100"}, "-device"},
		{[]string{"plan", "-fleet", "TPUv6e:1:2"}, "-fleet"},
		{[]string{"bogus"}, `unknown subcommand "bogus"`},
		{[]string{"experiment"}, "positional"},
		{[]string{"list", "extra"}, "positional"},
		{[]string{"ntt", "-logn", "-1"}, "-logn -1"},
		{[]string{"ntt", "-logn", "2"}, "-logn 2"},
		{[]string{"ntt", "-logn", "18"}, "-logn 18"},
		{[]string{"prof", "-op", "ntt", "-batch", "-4"}, "-batch"},
		{[]string{"prof", "-op", "intt", "-batch", "0"}, "-batch"},
		{[]string{"prof", "-cores", "0"}, "-cores"},
		{[]string{"prof", "-op", "fft"}, `unknown -op "fft"`},
	} {
		code, stdout, stderr := runArgs(tc.args...)
		if code == 0 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want non-zero exit naming %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// TestCompareRejectsBadBaseline: a BENCH_host.json with no records, in
// the retired bare-array form, or repeating a record ID fails the gate
// with a named error instead of comparing.
func TestCompareRejectsBadBaseline(t *testing.T) {
	dir := t.TempDir()
	rec := `{"id": "ntt_inplace/N8192", "ns_per_op": 1000, "allocs_per_op": 0}`
	for _, tc := range []struct {
		name, body, want string
	}{
		{"empty.json", `{"env": {}, "records": []}`, "holds no host benchmark records"},
		{"bare.json", "[" + rec + "]", "cannot unmarshal array"},
		{"dup.json", `{"records": [` + rec + `, ` + rec + `]}`, `duplicate record ID "ntt_inplace/N8192" in the baseline records`},
	} {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runArgs("hostbench", "-compare", path)
		if code != 1 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 naming %q", tc.name, code, stdout, stderr, tc.want)
		}
	}
}
