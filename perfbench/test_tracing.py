"""Checks of the benchmark's tracer: every binding of a traced function is
wrapped, and the per-layer self times account for the op's wall time."""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import biphoton  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from biphoton import cavity, cli, reporting, schemes, spectrum  # noqa: E402

POLE = spectrum.provider_pole(biphoton.species("He"))


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_every_binding_is_wrapped_and_restored():
    t = tracing.Tracer()
    bound = {(m.__name__, attr) for m, attr, _fn, _w in t.bindings}
    for name in ("theta_curve", "theta_factor_quadrature"):
        assert ("biphoton.reporting", name) in bound
        assert ("biphoton.cli", name) in bound
    assert ("biphoton.schemes", "spectral_amplitude") in bound
    assert ("numpy.polynomial.legendre", "leggauss") in bound
    t.install()
    try:
        assert all(getattr(m, attr) is w for m, attr, _fn, w in t.bindings)
    finally:
        t.uninstall()
    assert all(getattr(m, attr) is fn for m, attr, fn, _w in t.bindings)


# (namespace, name, call, span of the callee, span of a call it makes)
REBINDINGS = [
    (reporting, "theta_curve", lambda f: f([2.0], rel_tol=1e-6),
     "cavity.theta_curve", "cavity.theta_factor_quadrature"),
    (reporting, "theta_factor_quadrature",
     lambda f: f(cavity.Spheroid(2.0, 1.0), rel_tol=1e-6),
     "cavity.theta_factor_quadrature", "rules.leggauss"),
    (schemes, "spectral_amplitude", lambda f: f(POLE, n_points=64),
     "spectrum.spectral_amplitude", None),
    (cli, "theta_curve", lambda f: f([2.0], rel_tol=1e-6),
     "cavity.theta_curve", "cavity.theta_factor_quadrature"),
    (cli, "theta_factor_quadrature", lambda f: f(cavity.Spheroid(2.0, 1.0), rel_tol=1e-6),
     "cavity.theta_factor_quadrature", "rules.leggauss"),
    (cli, "theta_factor_mc", lambda f: f(cavity.Spheroid(2.0, 1.0), 1000),
     "cavity.theta_factor_mc", "cavity.angular_jacobian"),
    (biphoton, "two_photon_decay_rate", lambda f: f(POLE, n_points=64),
     "spectrum.two_photon_decay_rate", "spectrum.spectral_amplitude"),
]


@pytest.mark.parametrize("namespace, name, call, span, grandchild", REBINDINGS,
                         ids=[f"{ns.__name__}.{name}" for ns, name, *_ in REBINDINGS])
def test_call_through_rebinding_nests(tracer, namespace, name, call, span, grandchild):
    with tracer.op("t"):
        call(getattr(namespace, name))
    spans = tracer.spans
    assert spans[0].name == "op"
    children = [i for i, s in enumerate(spans) if s.parent == 0]
    assert [spans[i].name for i in children] == [span]
    if grandchild:
        assert grandchild in {s.name for s in spans if s.parent == children[0]}
    assert all(s.op_id == "t" for s in spans)


def test_self_times_sum_to_op_wall_time(tracer, tmp_path):
    workload = workloads.GeometrySweep(tmp_path, {})
    start = time.perf_counter()
    with tracer.op("g"):
        workload.op({"mc_ratio": 3, "mc_seed": 7})
    wall = time.perf_counter() - start
    assert min(tracing.self_times(tracer.spans)) >= 0.0
    buckets = tracing.bucket_self_times(tracer.spans, "g")
    assert sum(buckets.values()) == pytest.approx(wall, rel=0.01)
    # the benchmark's own glue is a sliver; the layers hold the op's time
    assert buckets["bench"] < 0.01 * wall
    assert buckets["rules.leggauss"] > 0 and buckets["cavity.mc"] > 0


def test_counts_repeat(tmp_path):
    counts = []
    for _ in range(2):
        t = tracing.Tracer()
        workload = workloads.SpectrumSweep(tmp_path, {})
        t.install()
        try:
            with t.op("s"):
                workload.op({"points": [{"n": 256, "z": 5, "lam": 1.5}]})
        finally:
            t.uninstall()
        metrics = tracing.op_metrics(t.spans, "s")
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["rules.leggauss_calls"] == 4
    assert counts[0]["spectrum.amplitude_calls"] == 4
    assert counts[0]["spectrum.correlation_cells"] == 2 * 4097 * 256
