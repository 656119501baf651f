"""Command-line interface.

One binary with subcommands; all tabular output is CSV (RFC-4180-style,
header row, ``%.12g`` floats) and all reports are JSON.  Exit codes:
0 success, 2 configuration error, 3 numerical error, 4 reproduction-table
failure under ``repro --strict``.  Relative output paths are resolved
against ``$BIPHOTON_OUTDIR`` when set.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import schemes as sch
from . import spectrum as spc
from ._numpy import LazyNumpy
from .cavity import (
    Spheroid,
    ThetaConvergenceError,
    theta_curve,
    theta_factor_mc,
    theta_factor_quadrature,
)
from .registry import SpeciesNotFound, species
from .reporting import (
    Scenario,
    SchemaError,
    _correlation_csv,
    _csv,
    _theta_curve_csv,
    bundled_scenario_path,
    repro_report,
    run_scenario,
)

np = LazyNumpy(globals())

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4


def _resolve(name: str) -> Path:
    path = Path(name)
    base = os.environ.get("BIPHOTON_OUTDIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _out_path(name: str) -> Path:
    path = _resolve(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _provider(species_name: str, kind: str):
    data = species(species_name)
    if kind not in spc.PROVIDERS:
        raise SchemaError(f"unknown provider {kind!r}; use "
                          f"{' or '.join(map(repr, spc.PROVIDERS))}")
    return spc.PROVIDERS[kind](data)


def _cmd_theta(args) -> int:
    s = Spheroid(float(args.ratio), 1.0)
    if args.mc is not None:
        est, se = theta_factor_mc(s, args.mc, seed=args.seed,
                                  convention=args.convention)
        print(f"theta = {est:.10g} +/- {se:.3g} (mc, n={args.mc}, seed={args.seed})")
    else:
        est = theta_factor_quadrature(s, rel_tol=args.rel_tol,
                                      convention=args.convention)
        print(f"theta = {est:.10g} (quadrature, rel_tol={args.rel_tol})")
    return EXIT_OK


def _cmd_theta_curve(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    if args.points > 10_000:
        raise ValueError(f"--points must be <= 10000, got {args.points}")
    ratios = np.geomspace(args.min, args.max, args.points)
    rows = theta_curve(ratios, rel_tol=args.rel_tol)
    path = _out_path(args.out)
    path.write_text(_theta_curve_csv(rows))
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    provider = _provider(args.species, args.provider)
    spec = spc.spectral_amplitude(provider, n_points=args.n_omega)
    path = _out_path(args.out)
    path.write_text(_csv(["omega_ev", "amplitude", "amplitude_sq"],
                         zip(spec.omega_ev.tolist(), spec.amplitude.tolist(),
                             (spec.amplitude**2).tolist())))
    print(f"wrote {path} ({spec.omega_au.size} rows)")
    return EXIT_OK


def _cmd_correlation(args) -> int:
    spc._check_time_grid(args.tmax_au, args.n_t)
    provider = _provider(args.species, args.provider)
    spec = spc.spectral_amplitude(provider, n_points=args.n_omega)
    corr = spc.correlation_function(spec, t_max_au=args.tmax_au, n_t=args.n_t)
    path = _out_path(args.out)
    path.write_text(_correlation_csv(corr))
    ct = spc.correlation_time(corr)
    print(f"wrote {path}; correlation time = {ct.width_au:.6g} a.u. "
          f"= {ct.width.value:.6g} s")
    return EXIT_OK


def _cmd_lifetime(args) -> int:
    provider = _provider(args.species, args.provider)
    rate, lifetime = spc.two_photon_decay_rate(provider)
    print(f"rate = {rate.value:.6g} 1/s, lifetime = {lifetime.value:.6g} s")
    return EXIT_OK


def _cmd_rates(args) -> int:
    scenario = Scenario.from_file(args.config or bundled_scenario_path())
    data = species(scenario.species)
    report = sch.SCHEMES[args.scheme].run(scenario.configs[args.scheme], data)
    text = report.to_json()
    if args.out:
        path = _out_path(args.out)
        path.write_text(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)
    return EXIT_OK


def _cmd_repro(args) -> int:
    scenario = Scenario.from_file(args.config) if args.config else None
    table = repro_report(scenario)
    print(table.pretty())
    if args.out:
        path = _out_path(args.out)
        path.write_text(table.to_json() + "\n")
        print(f"wrote {path}")
    if args.strict and not table.all_passed:
        return EXIT_ACCEPTANCE
    return EXIT_OK


def _cmd_run(args) -> int:
    # _resolve, not _out_path: run_scenario creates the directory only once
    # every artifact is computed
    written = run_scenario(args.scenario, out_dir=_resolve(args.out_dir or "."))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="XUV photon-pair budgets: cavity geometry, pair spectra, "
                    "and excitation-scheme rate estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", help="geometry factor for one aspect ratio")
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--mc", type=int, default=None,
                   help="Monte-Carlo sample count (default: quadrature)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--convention", choices=["physical", "printed"],
                   default="physical")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("theta-curve", help="geometry factor versus aspect ratio")
    p.add_argument("--min", type=float, default=1.0)
    p.add_argument("--max", type=float, default=148.0)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--rel-tol", type=float, default=1e-7)
    p.add_argument("--out", default="curve.csv")
    p.set_defaults(func=_cmd_theta_curve)

    p = sub.add_parser("spectrum", help="pair spectral amplitude")
    p.add_argument("--species", default="He")
    p.add_argument("--provider", default="pole")
    p.add_argument("--n-omega", type=int, default=2048)
    p.add_argument("--out", default="spectrum.csv")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("correlation", help="pair time-correlation function")
    p.add_argument("--species", default="He")
    p.add_argument("--provider", default="pole")
    p.add_argument("--n-omega", type=int, default=2048)
    p.add_argument("--tmax-au", type=float, default=40.0)
    p.add_argument("--n-t", type=int, default=4096)
    p.add_argument("--out", default="corr.csv")
    p.set_defaults(func=_cmd_correlation)

    p = sub.add_parser("lifetime", help="two-photon decay rate and lifetime")
    p.add_argument("--species", default="He")
    p.add_argument("--provider", default="pole")
    p.set_defaults(func=_cmd_lifetime)

    p = sub.add_parser("rates", help="excitation-scheme rate report")
    p.add_argument("scheme", choices=list(sch.SCHEMES))
    p.add_argument("--config", default=None, help="scenario JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("repro", help="recompute all quoted estimates")
    p.add_argument("--config", default=None, help="scenario JSON file")
    p.add_argument("--out", default=None)
    p.add_argument("--strict", action="store_true",
                   help="exit 4 unless every row passes")
    p.set_defaults(func=_cmd_repro)

    p = sub.add_parser("run", help="run a scenario file, writing all artifacts")
    p.add_argument("scenario")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ThetaConvergenceError, spc.PoleInGridError, ArithmeticError) as exc:
        print(f"numerical error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SchemaError, SpeciesNotFound, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
