"""Run one workload in this (fresh) process and print one JSON line.

Modes: `setup` stops once the inputs are ready; `full` then computes the
references, runs whole rounds until `--seconds` have passed and checks
every output; `traced` does one round with spans around qmeasure's
public functions, installed before the setup.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def run(args, workdir) -> dict:
    tracer = None
    if args.mode == "traced":
        import spans

        tracer = spans.install()
    from workloads import WORKLOADS, Verdict

    setup, references, make_ops = WORKLOADS[args.workload]
    state = setup(args.seed, workdir)
    setup_s = time.time() - args.spawned
    if args.mode == "setup":
        return {"setup_s": setup_s}

    refs = references(state, args.seed)
    ops = make_ops(state)
    round_s, attempted, failed, problems = [], 0, 0, []
    start = time.perf_counter()
    while True:
        values = []
        t0 = time.perf_counter()
        for _, call, _ in ops:
            try:
                values.append((call(), None))
            except Exception as exc:  # a failed operation is counted, not fatal
                values.append((None, f"raised {type(exc).__name__}: {exc}"))
        round_s.append(time.perf_counter() - t0)
        for (name, _, verify), (value, error) in zip(ops, values):
            attempted += 1
            if error is None:
                try:
                    verdict = verify(value, refs)
                except Exception as exc:  # malformed output
                    verdict = Verdict([f"check raised {type(exc).__name__}: {exc}"])
            else:
                verdict = Verdict([error])
            if verdict.problems:
                failed += 1
                if not verdict.known_fault:
                    problems.append(f"{name}: {'; '.join(verdict.problems)}")
        # start another round only if it should end within the measuring window
        if tracer is not None or time.perf_counter() - start + round_s[-1] > args.seconds:
            break
    out = {
        "setup_s": setup_s,
        "round_s": round_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "full", "traced"), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="wall-clock time at which the parent started this process")
    args = parser.parse_args()
    workdir = os.path.join(os.getcwd(), ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another worker's directory is still there
            pass
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
