#!/usr/bin/env python3
"""Run the benchmark several times per workload, each with its own seed,
and report every metric's median and spread (interquartile range over
median, as statistics.quantiles(values, n=4) gives the quartiles).

Run from the repository root:

    python3 perfbench/spread.py --runs 10 --seconds 10
    python3 perfbench/spread.py --runs 5 --workloads fft-par2 --bin path/to/perfbench

Without --bin it runs the command BENCHMARK.json names. The bound of each
end-to-end metric is printed next to its spread; a spread above a third
of its bound means the benchmark is not yet steady enough.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--bin", help="prebuilt perfbench binary to run instead of the command")
    ap.add_argument("--verbose", action="store_true", help="print every run's value too")
    args = ap.parse_args()
    command = [args.bin] if args.bin else spec["command"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({args.runs} runs)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"bound {bound:.2f}" + ("  <-- above a third" if spread > bound / 3 else "")
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            print(f"  {name:<44} median {med:14.6g}  spread {spread:7.4f}  {flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in vs))
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
