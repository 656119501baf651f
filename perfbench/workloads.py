"""The benchmark's operations and the oracles that check their outputs.

``op(inp)`` is the timed call into biphoton.  ``verify(inp, out)`` runs
outside the timed region and returns a ``Verdict``: the oracle failures, which
count toward the failed operations, and how many of the seed commit's
reference outputs (``reference.json``) the op reproduced bit for bit, which
is reported as a count and never fails an op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import biphoton as bp
from biphoton import cli
from biphoton import spectrum as spc

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class Verdict(NamedTuple):
    failures: list[str]
    identical: int = 0
    artifact_bytes: int = 0


class Workload:
    def op(self, inp):
        raise NotImplementedError

    def verify(self, inp, out) -> Verdict:
        raise NotImplementedError

    def parallel_efficiency(self, inp) -> float:
        """Single-thread over n-worker time, per worker; 0 where nothing runs in parallel."""
        return 0.0


class PaperRun(Workload):
    """``biphoton run`` on the bundled scenario, writing eight artifacts."""

    ARTIFACTS = 8
    FAILING_ROWS = ["collection_fraction", "sigma_e"]

    def __init__(self, work_dir: Path, reference: dict):
        self.out_dir = work_dir / "paper-run"
        self.scenario = str(bp.reporting.bundled_scenario_path())
        self.reference = reference.get("paper-run", {})
        self.first_hashes = None

    def op(self, inp):
        with contextlib.redirect_stdout(io.StringIO()) as log:
            code = cli.main(["run", self.scenario, "--out-dir", str(self.out_dir)])
        return code, log.getvalue()

    def artifact_hashes(self, out) -> dict[str, tuple[str, int]]:
        _code, log = out
        hashes = {}
        for line in log.splitlines():
            if line.startswith("wrote "):
                path = Path(line[len("wrote "):])
                data = path.read_bytes()
                hashes[path.name] = (hashlib.sha256(data).hexdigest(), len(data))
        return hashes

    def verify(self, inp, out) -> Verdict:
        code, _log = out
        if code != 0:
            return Verdict([f"biphoton run exited with {code}"])
        hashes = self.artifact_hashes(out)
        failures = []
        if len(hashes) != self.ARTIFACTS:
            failures.append(f"wrote {len(hashes)} artifacts, expected {self.ARTIFACTS}")
        rows = json.loads((self.out_dir / "repro_table.json").read_text())["rows"]
        failed = sorted(r["claim_id"] for r in rows if not r["passed"])
        if len(rows) != 25 or failed != self.FAILING_ROWS:
            failures.append(f"repro table {len(rows) - len(failed)}/{len(rows)}, "
                            f"failing rows {failed}")
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            failures.append("artifacts differ from the first op's")
        identical = sum(self.reference.get(name) == digest
                        for name, (digest, _size) in hashes.items())
        return Verdict(failures, identical, sum(size for _d, size in hashes.values()))


class GeometrySweep(Workload):
    """Theta over 25 aspect ratios plus one two-thread Monte-Carlo estimate."""

    RATIOS = np.geomspace(1.0, 148.0, 25)
    REL_TOL = 1e-9
    MC_SAMPLES = 1_000_000
    MC_WORKERS = 2

    def __init__(self, work_dir: Path, reference: dict):
        self.reference = reference.get("theta_curve")

    def _mc(self, inp, n_workers):
        spheroid = bp.Spheroid(float(self.RATIOS[inp["mc_ratio"]]), 1.0)
        return bp.theta_factor_mc(spheroid, self.MC_SAMPLES, seed=inp["mc_seed"],
                                  n_workers=n_workers)

    def op(self, inp):
        curve = bp.theta_curve(self.RATIOS, rel_tol=self.REL_TOL)
        return curve, self._mc(inp, self.MC_WORKERS)

    def verify(self, inp, out) -> Verdict:
        curve, (estimate, stderr) = out
        theta = [row["theta"] for row in curve]
        failures = []
        if abs(theta[0] - 64.0 * math.pi**2 / 27.0) > 1e-9:
            failures.append(f"Theta(1) = {theta[0]!r}")
        if not all(b < a for a, b in zip(theta, theta[1:])):
            failures.append("Theta curve is not strictly decreasing")
        if abs(theta[0] / theta[-1] / (8.0 / 3.0) - 1.0) > 0.05:
            failures.append(f"Theta(1)/Theta(148) = {theta[0] / theta[-1]!r}")
        quad = theta[inp["mc_ratio"]]
        if not abs(estimate - quad) <= 5.0 * stderr:
            failures.append(f"MC {estimate!r} +/- {stderr!r} vs quadrature {quad!r}")
        return Verdict(failures, int(theta == self.reference))

    def parallel_efficiency(self, inp) -> float:
        times = {}
        for n_workers in (1, self.MC_WORKERS):
            start = time.perf_counter()
            self._mc(inp, n_workers)
            times[n_workers] = time.perf_counter() - start
        return times[1] / (self.MC_WORKERS * times[self.MC_WORKERS])


class SpectrumSweep(Workload):
    """One sweep over the grid sizes: at each point a He-like ion at one size.

    At each point it computes the amplitude, correlation and correlation time
    of the flat and the pole provider and the decay rate of the pole chain
    and of its scaled copy.
    """

    N_T = 4096
    T_MAX_HE_AU = 40.0
    TAU_HE_S = 1.93e-16

    def __init__(self, work_dir: Path, reference: dict):
        self.reference = reference.get("decay_rate_per_s", {})
        self.he_gap = bp.species("He").delta_eg.au

    def op(self, inp):
        return [self.point(p) for p in inp["points"]]

    def point(self, p):
        species = bp.species(f"He-like(Z={p['z']})")
        gap = species.delta_eg.au
        t_max = self.T_MAX_HE_AU * self.he_gap / gap   # keeps the grid check satisfied
        pole = spc.provider_pole(species)
        out = {"gap": gap}
        for name, provider in (("flat", spc.provider_flat(species)), ("pole", pole)):
            spec = spc.spectral_amplitude(provider, n_points=p["n"])
            corr = spc.correlation_function(spec, t_max_au=t_max, n_t=self.N_T)
            out[name] = (corr, spc.correlation_time(corr))
        out["rate"] = spc.two_photon_decay_rate(pole, n_points=p["n"])[0].value
        scaled = spc.hydrogenic_scaled(pole, p["lam"])
        out["rate_scaled"] = spc.two_photon_decay_rate(scaled, n_points=p["n"])[0].value
        return out

    def verify(self, inp, out) -> Verdict:
        failures, identical = [], 0
        for p, res in zip(inp["points"], out):
            where = f"Z={p['z']} n={p['n']}: "
            corr, _ = res["flat"]
            exact = spc.flat_correlation_closed_form(corr.t_au, res["gap"])
            err = float(np.max(np.abs(corr.values - exact)))
            if not err <= 1e-12:
                failures.append(f"{where}flat C(t) off the closed form by {err!r}")
            ratio = res["rate_scaled"] / res["rate"] / p["lam"] ** 6
            if not abs(ratio - 1.0) <= 1e-12:
                failures.append(f"{where}scaled/unscaled rate over lambda^6 = {ratio!r}")
            # the He-like spectra are rescaled copies of He's, so tau * gap is fixed
            tau_he = res["pole"][1].width.value * res["gap"] / self.he_gap
            if not abs(tau_he / self.TAU_HE_S - 1.0) <= 0.25:
                failures.append(f"{where}He-equivalent correlation time {tau_he!r} s")
            ref = self.reference.get(str(p["z"]), {}).get(str(p["n"]))
            identical += int(res["rate"] == ref)
        if len(out) != len(inp["points"]):
            failures.append(f"{len(out)} results for {len(inp['points'])} points")
        return Verdict(failures, identical)


WORKLOADS = {
    "paper-run": PaperRun,
    "geometry-sweep": GeometrySweep,
    "spectrum-sweep": SpectrumSweep,
}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
