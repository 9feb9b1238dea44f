#!/usr/bin/env python3
"""Repeatability study for the crossperf benchmark, and the bounds it gives.

Runs two sets back to back. A set is one untraced run of the command in
BENCHMARK.json per workload and seed, seeds 1 to 10, at BENCHMARK.json's
run_seconds. For every workload and end-to-end metric it reports, per set,
the median, the spread (q3 - q1) / median (statistics.quantiles, n=4) and
the range (max - min) / median, and the drift: how much worse the second
set's median is than the first's, as a share of the first (negative:
better).

It sets each metric's bound:
  - alloc_mb_per_req, which is nearly deterministic: 0.02;
  - the timing metrics: 0.25, the most the benchmark contract allows.
    Unscaled runs on a more heavily loaded host of the same kind spread
    two to four times wider than on the study host (bench/README.md), so
    a bound derived from the study host alone would be too tight;
  - every other metric: the largest of 0.10, its widest range and three
    times its widest spread, over the workloads and both sets, rounded up
    to 0.01 and capped at 0.25.

It prints one line per workload and metric, and exits 1 if a spread (but
setup_s's) or a drift is above the bound BENCHMARK.json fixes. Run from
the repository root; --out also writes the study, in the schema of
bench/repeatability.json:

    python3 bench/study.py --out bench/repeatability.json
"""
import argparse
import datetime
import json
import math
import os
import statistics
import subprocess
import sys

SEEDS = list(range(1, 11))
SETS = 2
FLOOR, CAP = 0.10, 0.25
FIXED = {"alloc_mb_per_req": 0.02, "setup_s": CAP, "throughput_rps": CAP,
         "p50_ms": CAP, "p90_ms": CAP, "cpu_ms_per_req": CAP}


def run_set(spec, workloads, label):
    """Returns {workload: {metric: [value per seed]}}."""
    vals = {}
    for w in workloads:
        vals[w] = {}
        for s in SEEDS:
            cmd = spec["command"] + ["--workload", w, "--seed", str(s),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{w} seed {s}: exit {p.returncode}\n{p.stderr}")
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {s}: incorrect result {lines[-1]}")
            for name, m in res["metrics"].items():
                vals[w].setdefault(name, []).append(m["value"])
            print(f"set {label}: {w} seed {s} done", file=sys.stderr)
    return vals


def stats(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, (q3 - q1) / med, (max(xs) - min(xs)) / med


def derive_bounds(metrics, table):
    bounds = {}
    for name in metrics:
        widest = max(w[name][f"range_{k}"] for w in table.values() for k in range(1, SETS + 1))
        spread = max(w[name][f"spread_{k}"] for w in table.values() for k in range(1, SETS + 1))
        if name in FIXED:
            derived = FIXED[name]
        else:
            derived = min(CAP, max(FLOOR, math.ceil(max(widest, 3 * spread) * 100) / 100))
        bounds[name] = {"derived": derived, "widest_range": round(widest, 4), "widest_spread": round(spread, 4)}
    return bounds


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.split()
    return {"cpus": os.cpu_count(), "cpu_model": model, "go": go[2] if len(go) > 2 else "",
            "date": datetime.date.today().isoformat()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="also write the study as JSON to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    sets = [run_set(spec, workloads, k) for k in range(1, SETS + 1)]

    table = {}
    for w in workloads:
        table[w] = {}
        for name, m in metrics.items():
            cell = {}
            for k, vals in enumerate(sets, 1):
                med, spread, rng = stats(vals[w][name])
                cell.update({f"median_{k}": med, f"spread_{k}": round(spread, 4), f"range_{k}": round(rng, 4)})
            m1, m2 = cell["median_1"], cell[f"median_{SETS}"]
            worse = (m2 - m1) if m["better"] == "lower" else (m1 - m2)
            cell["drift"] = round(worse / m1, 4)
            table[w][name] = cell

    bounds = derive_bounds(metrics, table)
    failed = False
    print(f"{'workload':16s} {'metric':18s} {'bound':>5s} {'derived':>7s} {'median 1':>11s} "
          f"{'spread 1':>8s} {'range 1':>7s} {'median 2':>11s} {'spread 2':>8s} {'range 2':>7s} {'drift':>7s}")
    for w in workloads:
        for name, m in metrics.items():
            c, bound = table[w][name], m["bound"]
            flags = []
            if name != "setup_s" and max(c["spread_1"], c["spread_2"]) > bound:
                flags.append("SPREAD ABOVE BOUND")
            elif name != "setup_s" and max(c["spread_1"], c["spread_2"]) > bound / 3:
                flags.append("spread above bound/3")
            if c["drift"] > bound:
                flags.append("DRIFT ABOVE BOUND")
            failed = failed or any(f.isupper() for f in flags)
            print(f"{w:16s} {name:18s} {bound:5.3f} {bounds[name]['derived']:7.3f} "
                  f"{c['median_1']:11.6g} {c['spread_1']:8.4f} {c['range_1']:7.4f} "
                  f"{c['median_2']:11.6g} {c['spread_2']:8.4f} {c['range_2']:7.4f} {c['drift']:+7.4f}"
                  f"  {'; '.join(flags)}")
    for name, b in bounds.items():
        if b["derived"] != metrics[name]["bound"]:
            print(f"{name}: derived bound {b['derived']} differs from BENCHMARK.json's {metrics[name]['bound']}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({
                "about": "Written by python3 bench/study.py: two back-to-back sets of one untraced run "
                         "per workload and seed. spread = (q3 - q1) / median, range = (max - min) / median "
                         "over a set's runs; drift = how much worse the second set's median is than the "
                         "first's (negative: better). derived = the bound the study sets.",
                "host": host(),
                "seeds": SEEDS,
                "run_seconds": spec["run_seconds"],
                "bounds": bounds,
                "workloads": table,
            }, f, indent=1)
            f.write("\n")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
