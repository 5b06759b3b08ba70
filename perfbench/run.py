"""qmeasure benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a qmeasure checkout.  Each workload runs in fresh
worker processes (perfbench/worker.py) importing qmeasure from `src/`.
The last line of standard output is the result; the line before it
records the environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# one BLAS thread: the workloads call numpy on small and mid-size arrays,
# and a single thread keeps a 2-core machine free of oversubscription
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up-only processes started before the full worker and as many after
# it; the machine's speed drifts over tens of seconds, so the samples
# straddle the full worker rather than run back to back
SETUP_SAMPLES_EACH_SIDE = 4
TIME_LIMIT = 170.0  # seconds for every worker of one run together


class WorkerFailed(Exception):
    pass


def spawn(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--spawned", repr(time.time()),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker exceeded the time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "qmeasure", "__init__.py")):
        sys.stderr.write("error: run from the root of a qmeasure checkout (no src/qmeasure)\n")
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    try:
        if args.trace:
            plain = spawn(args, "full", deadline)
            traced = spawn(args, "traced", deadline)
            layers = dict(traced["layers"])
            layers["trace.overhead_s"] = traced["round_s"][0] - statistics.fmean(plain["round_s"])
            values = {m["name"]: layers.get(m["name"], 0) for m in spec["per_layer"]}
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            runs = [plain, traced]
        else:
            setups = [spawn(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES_EACH_SIDE)]
            full = spawn(args, "full", deadline)
            setups.append(full["setup_s"])
            setups += [spawn(args, "setup", deadline)["setup_s"]
                       for _ in range(SETUP_SAMPLES_EACH_SIDE)]
            values = {
                "setup_s": statistics.median(setups),
                "run_s": statistics.fmean(full["round_s"]),
                "peak_rss_mib": full["peak_rss_mib"],
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            runs = [full]
    except WorkerFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    problems = [p for r in runs for p in r["problems"]]
    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")
    env = dict(runs[0]["environment"])
    env.update(
        nproc=os.cpu_count(),
        usable_cpus=len(os.sched_getaffinity(0)),
        git_commit=git_commit(),
        src_sha256=source_digest(),
        rounds=[len(r["round_s"]) for r in runs],
    )
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
