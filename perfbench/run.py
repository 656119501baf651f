"""biphoton benchmark: one workload per call, each in fresh worker processes.

    python3 perfbench/run.py --workload paper-run --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; biphoton is imported from ``src``.
The inputs are made here from ``--seed``; workers receive only the inputs.
Load is a closed loop with one client: one process, one op at a time, BLAS
and OpenMP pinned to one thread, so only ``theta_factor_mc(n_workers=2)``
uses a second thread.

With ``--trace 0`` the run starts ``SETUP_ONLY`` fresh workers that only set
up, then ``WORKERS`` fresh workers, one after the other.  Each of the latter
sets up and runs the first op; the last one then runs warm ops
until ``--seconds`` have passed since the run started, and at least
``MIN_WARM`` of them.  It reports the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` one worker runs the first op, then
each of ``TRACE_OPS`` warm ops traced and untraced, and reports the
per-layer metrics; the spans go to ``perfbench/_work``.  The last line of
standard output is the JSON result.  ``perfbench/spec.json`` documents each
workload, oracle and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / "_work"

WORKERS = {"paper-run": 2, "geometry-sweep": 5, "spectrum-sweep": 3}
DEADLINE_S = 170.0
SETUP_ONLY = 4
MIN_WARM = 3
MAX_OPS = 256
TRACE_OPS = {"paper-run": 2, "geometry-sweep": 6, "spectrum-sweep": 2}
N_RATIOS = 25                               # len(workloads.GeometrySweep.RATIOS)
SIZES = (1024, 768, 512, 384, 256)
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def make_inputs(workload: str, seed: int):
    """First op and warm ops; the same seed gives the same inputs.

    A ``spectrum-sweep`` op visits every grid size once, so the cost of an op
    does not depend on the seed.  The sizes run largest first in a fixed
    order: in a seeded order the peak RSS moved between 314 and 354 MB with
    the heap that freed arrays of earlier sizes left behind.  The seed picks
    the ion and the scale at each size.
    """
    rng = random.Random(seed)
    if workload == "paper-run":
        def op():
            return {}
    elif workload == "geometry-sweep":
        def op():
            return {"mc_ratio": rng.randrange(N_RATIOS), "mc_seed": rng.randrange(2**32)}
    else:
        def op():
            return {"points": [{"n": n, "z": rng.randint(2, 20), "lam": rng.uniform(0.5, 2.5)}
                               for n in SIZES]}
    return op(), [op() for _ in range(MAX_OPS)]


def spawn(cfg: dict, deadline: float) -> dict:
    """Start a fresh worker, wait for it, and return its result."""
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(cfg),
        capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=max(1.0, deadline - start),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    # perf_counter is the system-wide monotonic clock, shared with the worker
    result["setup"]["setup_s"] = result["setup"]["ready_at"] - start
    return result


def measure(workload: str, seed: int, seconds: int, traced: bool):
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    first, ops = make_inputs(workload, seed)
    WORK_DIR.mkdir(exist_ok=True)
    cfg = {"mode": "trace" if traced else "run", "workload": workload, "seed": seed,
           "first": first, "work_dir": str(WORK_DIR)}
    if traced:
        results = [spawn(dict(cfg, ops=ops[:TRACE_OPS[workload]]), deadline)]
    else:
        # set-up-only workers, then workers that set up and run the first op;
        # the last one also runs the warm ops until the run has lasted --seconds
        setups = [spawn(dict(cfg, mode="setup"), deadline)["setup"]["setup_s"]
                  for _ in range(SETUP_ONLY)]
        cfg.update(stop_at=start + seconds, min_warm=MIN_WARM)
        results = [spawn(dict(cfg, ops=[]), deadline) for _ in range(WORKERS[workload] - 1)]
        results.append(spawn(dict(cfg, ops=ops), deadline))
        setups += [r["setup"]["setup_s"] for r in results]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for error in r["errors"]:
            print(f"{workload}: {error}", file=sys.stderr)

    if traced:
        (result,) = results
        values = dict(result["per_layer"])
        for key in ("import_s", "registry_s", "scenario_s"):
            values[f"setup.{key}"] = result["setup"][key]
        summary = f"{attempted} ops, {len(result['traced_ops'])} of them traced"
    else:
        warm = results[-1]["warm_op_s"]
        values = {
            "setup_s": median(setups),
            "first_op_s": median(r["first_op_s"] for r in results),
            "op_s_p50": median(warm),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "ok_frac": (attempted - failed) / attempted,
        }
        summary = (f"setup_s over {len(setups)} workers, first_op_s over {len(results)}, "
                   f"op_s_p50 over {len(warm)} warm ops, {failed}/{attempted} ops failed")
    return values, summary, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "biphoton" / "__init__.py").is_file():
        print(f"no biphoton sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        values, summary, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(f"{args.workload} seed={args.seed}: {summary}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
