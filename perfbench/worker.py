"""One fresh benchmark worker process; ``run.py`` starts it and sends its
configuration as JSON on standard input.

Set-up imports biphoton, loads the registry and parses the bundled scenario.
Modes:
  setup  set up only
  run    set up, run the first op, then warm ops until the clock reads
         ``stop_at`` and at least ``min_warm`` have run
  trace  set up, run the first op, then each given op twice, traced and
         untraced, alternating which goes first

The last line of standard output is a JSON object with the timings.
"""

import contextlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median


def setup() -> dict:
    """Import biphoton, load the registry and parse the bundled scenario."""
    start = time.perf_counter()
    import biphoton

    imported = time.perf_counter()
    biphoton.default_registry()
    loaded = time.perf_counter()
    biphoton.Scenario.from_file(biphoton.reporting.bundled_scenario_path())
    ready = time.perf_counter()
    return {"ready_at": ready, "import_s": imported - start,
            "registry_s": loaded - imported, "scenario_s": ready - loaded}


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def add(self, verdict):
        self.attempted += 1
        if verdict.failures:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.extend(verdict.failures)


def attempt(workload, inp, context=None):
    """Run and verify one op; returns (wall seconds of the op, verdict)."""
    from workloads import Verdict

    start = time.perf_counter()
    try:
        with context or contextlib.nullcontext():
            out = workload.op(inp)
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        return time.perf_counter() - start, Verdict([f"{type(exc).__name__}: {exc}"])
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.verify(inp, out)
    except Exception as exc:
        return elapsed, Verdict([f"verify raised {type(exc).__name__}: {exc}"])


def run(workload, cfg, tally):
    first_s, verdict = attempt(workload, cfg["first"])
    tally.add(verdict)
    warm = []
    for inp in cfg["ops"]:
        if time.perf_counter() >= cfg["stop_at"] and len(warm) >= cfg["min_warm"]:
            break
        elapsed, verdict = attempt(workload, inp)
        warm.append(elapsed)
        tally.add(verdict)
    return {"first_op_s": first_s, "warm_op_s": warm,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def trace(workload, cfg, tally, work_dir):
    import tracing

    tracer = tracing.Tracer()
    tally.add(attempt(workload, cfg["first"])[1])
    times = {True: [], False: []}
    traced_ids, verdicts = [], []
    for k, inp in enumerate(cfg["ops"]):
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            if traced:
                op_id = str(k)
                tracer.install()
                try:
                    elapsed, verdict = attempt(workload, inp, tracer.op(op_id))
                finally:
                    tracer.uninstall()
                traced_ids.append(op_id)
                verdicts.append(verdict)
            else:
                elapsed, verdict = attempt(workload, inp)
            times[traced].append(elapsed)
            tally.add(verdict)
    per_layer = tracing.layer_metrics(tracer.spans, traced_ids)
    per_layer.update({
        "reporting.artifact_bytes": sum(v.artifact_bytes for v in verdicts) / len(verdicts),
        "reporting.artifacts_identical": sum(v.identical for v in verdicts) / len(verdicts),
        "cavity.mc_parallel_eff": workload.parallel_efficiency(cfg["first"]),
        "trace.overhead_s": median(times[True]) - median(times[False]),
    })
    spans_path = work_dir / f"spans-{cfg['workload']}-seed{cfg['seed']}.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op_id", "attrs"],
        "spans": [s.as_list() for s in tracer.spans],
    }))
    return {"per_layer": per_layer, "traced_ops": traced_ids}


def main():
    result = {"setup": setup()}
    cfg = json.load(sys.stdin)
    if cfg["mode"] == "setup":
        print(json.dumps(result))
        return
    from workloads import WORKLOADS, load_reference

    work_dir = Path(cfg["work_dir"])
    op_dir = work_dir / f"{cfg['workload']}-{os.getpid()}"
    workload = WORKLOADS[cfg["workload"]](op_dir, load_reference())
    tally = Tally()
    try:
        if cfg["mode"] == "run":
            result.update(run(workload, cfg, tally))
        else:
            result.update(trace(workload, cfg, tally, work_dir))
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
