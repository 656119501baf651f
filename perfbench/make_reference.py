"""Write reference.json: outputs that the benchmark compares bit for bit.

    python3 perfbench/make_reference.py

It records the SHA-256 of each ``paper-run`` artifact, the ``geometry-sweep``
Theta curve, and the He-like pole-chain decay rate for every Z from 2 to 20
and every ``spectrum-sweep`` grid size, computed with BLAS pinned to one
thread as in the benchmark workers.  Regenerate it only on purpose: a
mismatch is reported as ``reporting.artifacts_identical`` and never fails an
op.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import run

os.environ.update(run.ONE_THREAD)
sys.path.insert(0, str(run.SRC))

import biphoton as bp  # noqa: E402
import workloads  # noqa: E402
from biphoton import spectrum as spc  # noqa: E402


def main():
    out_dir = run.WORK_DIR / "reference"
    paper = workloads.PaperRun(out_dir, {})
    try:
        hashes = paper.artifact_hashes(paper.op({}))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    curve = bp.theta_curve(workloads.GeometrySweep.RATIOS,
                           rel_tol=workloads.GeometrySweep.REL_TOL)
    rates = {
        str(z): {
            str(n): spc.two_photon_decay_rate(
                spc.provider_pole(bp.species(f"He-like(Z={z})")), n_points=n)[0].value
            for n in sorted(run.SIZES)
        }
        for z in range(2, 21)
    }
    reference = {
        "paper-run": {name: digest for name, (digest, _size) in sorted(hashes.items())},
        "theta_curve": [row["theta"] for row in curve],
        "decay_rate_per_s": rates,
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
