"""Steadiness check: two sets of runs of every workload, compared.

    python3 perfbench/steady.py

Run from the root of the checkout.  Each set runs every workload in
BENCHMARK.json once for each of 10 seeds (set 1 uses seeds 1..10, set 2
seeds 11..20), interleaving workloads.  For each workload and end-to-end
metric it prints the median, first and third quartile and the spread
(Q3 - Q1) / median of each set, then whether the sets agree: every
spread within the metric's bound, the two medians apart by no more than
the bound (in either direction), the same share of failed operations in
every run, and every run correct.  Exit code 0 when all agree.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction

RUNS = 10
SETS = 2


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            for w in workloads:
                res = run_once(spec, w, seed)
                results[w][s].append(res)
                print(f"set {s + 1} seed {seed} {w}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                      + f" failed={res['failed']}/{res['attempted']} correct={res['correct']}",
                      flush=True)

    all_ok = True
    for w in workloads:
        runs = [r for group in results[w] for r in group]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{w}: failed share {sorted(str(x) for x in shares)}, all correct {correct}")
        all_ok &= len(shares) == 1 and correct
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in group]) for group in results[w]]
            line = f"  {name:13s}"
            for st in stats:
                line += (f" | median {st['median']:.4g} q1 {st['q1']:.4g} q3 {st['q3']:.4g}"
                         f" spread {st['spread']:.3f}")
            m1, m2 = stats[0]["median"], stats[1]["median"]
            shift = (m2 - m1) / m1
            ok = all(st["spread"] <= bound for st in stats) and abs(shift) <= bound
            line += f" | second vs first {shift:+.3f} | bound {bound} {'ok' if ok else 'DISAGREE'}"
            print(line)
            all_ok &= ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
