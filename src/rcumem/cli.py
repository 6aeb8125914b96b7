"""Command-line front end: parameter sweeps, simulation cross-checks, oracle runs.

Subcommands:
  analytic   closed-form sweep over a parameter grid, CSV out
  simulate   same grid with simulation columns and an analytic cross-check
  tradeoff   (average age, footprint) pairs over a write-rate range
  validate   run the full oracle grid and report pass/fail

Grids are given as comma lists ("1,5,10") or ranges "start:stop:count[:scale]"
with scale lin (default) or log. Exit codes: 0 success, 1 check failure,
2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import io
import math
import sys

import numpy as np

from .core import ConvergenceError, DomainError, ModelParams, _U64
from . import analytics
from .simulator import ConfigError, SimConfig, simulate

CSV_HEADER = "alpha,lambda,mu,en_exact,en_bound_jensen,en_bound_simple,avg_age,sim_en,sim_en_ci,sim_age,sim_age_ci,seed"


def parse_grid(spec: str) -> list[float]:
    """Parse "v", "v1,v2,...", or "start:stop:count[:scale]" (scale lin|log)."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"bad range {spec!r}; want start:stop:count[:scale]")
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
        scale = parts[3] if len(parts) == 4 else "lin"
        if count < 1:
            raise ValueError(f"count must be >= 1 in {spec!r}")
        if scale == "lin":
            return [float(v) for v in np.linspace(start, stop, count)]
        if scale == "log":
            if start <= 0 or stop <= 0:
                raise ValueError(f"log range needs positive endpoints in {spec!r}")
            return [float(v) for v in np.geomspace(start, stop, count)]
        raise ValueError(f"unknown scale {scale!r} in {spec!r}")
    vals = [float(v) for v in spec.split(",") if v.strip() != ""]
    if not vals:
        raise ValueError(f"empty grid {spec!r}")
    return vals


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return (z ^ (z >> 31)) & _U64


def point_seed(base_seed: int, index: int) -> int:
    """Deterministic, decorrelated per-grid-point seed."""
    return (base_seed ^ _splitmix64(index)) & _U64


def _grid_points(args) -> list[ModelParams]:
    alphas = parse_grid(args.alpha)
    lams = parse_grid(getattr(args, "lam"))
    mus = parse_grid(args.mu)
    return [ModelParams(a, l, m) for a in alphas for l in lams for m in mus]


def _analytic_row(p: ModelParams) -> tuple[float, ...]:
    """The seven analytic CSV columns, alpha through avg_age."""
    rep = analytics.en_exact(p)
    return (p.alpha, p.lam, p.mu, rep.en_exact, rep.en_bound_jensen, rep.en_bound_simple, analytics.avg_age(p))


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def cmd_analytic(args) -> int:
    points = _grid_points(args)
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for p in points:
        buf.write(",".join(repr(float(v)) for v in _analytic_row(p)) + ",,,,,\n")
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_simulate(args) -> int:
    points = _grid_points(args)
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    worst = 0.0
    failed = False
    hist_lines: list[str] = []
    for i, p in enumerate(points):
        seed = point_seed(args.seed, i)
        row = _analytic_row(p)
        config = SimConfig(
            seed=seed,
            horizon_publications=args.publications,
            batch_count=args.batches,
            sample_n_distribution=args.histogram,
        )
        st = simulate(p, config)
        sim = (st.mean_active_updates, st.ci_half_width_n, st.mean_age, st.ci_half_width_age)
        buf.write(",".join(repr(float(v)) for v in (*row, *sim)) + f",{seed}\n")
        exact = row[3]
        dev = abs(st.mean_active_updates - exact)
        if st.ci_half_width_n > 0:
            worst = max(worst, dev / st.ci_half_width_n)
        if dev > max(3.0 * st.ci_half_width_n, 0.02 * exact):
            failed = True
        if args.histogram and st.n_histogram is not None:
            for n, wgt in st.n_histogram.items():
                hist_lines.append(f"{p.alpha!r},{p.lam!r},{p.mu!r},{n},{wgt!r}")
    _emit(buf.getvalue(), args.out)
    if args.histogram:
        text = "alpha,lambda,mu,n,weight\n" + "\n".join(hist_lines) + "\n"
        if args.out is not None:
            with open(args.out + ".hist", "w", encoding="utf-8", newline="") as f:
                f.write(text)
        else:
            sys.stderr.write(text)
    sys.stderr.write(f"max |sim - analytic| = {worst:.3f} CI half-widths\n")
    if args.check and failed:
        return 1
    return 0


def cmd_tradeoff(args) -> int:
    alphas = parse_grid(args.alpha)
    lam = float(args.lam)
    mu = float(args.mu)
    buf = io.StringIO()
    buf.write("alpha,avg_age,en_exact\n")
    for a in alphas:
        p = ModelParams(a, lam, mu)
        rep = analytics.en_exact(p)
        buf.write(f"{a!r},{analytics.avg_age(p)!r},{rep.en_exact!r}\n")
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_validate(args) -> int:
    import os
    from concurrent.futures import ThreadPoolExecutor

    from . import validation  # importing it builds the quadrature rules (~7 ms); only validate needs them

    # The checks run at once, one thread per usable core, mostly in numpy calls that release
    # the GIL; none peaks above 2.3 MiB traced (mc_p_ek; the one Lemma 1 pass over k 1.9 MiB),
    # about what each thread's malloc arena keeps.
    # map yields in check order, so the output is a serial run's; a check's error is raised
    # after the lines before it and cancels the checks not yet started.
    # os.sched_getaffinity is missing on macOS and Windows, which count every core as usable
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    ok = True
    with ThreadPoolExecutor(cores) as pool:
        for lines in pool.map(lambda check: check(), validation.checks(args.samples, args.seed)):
            for name, passed, detail in lines:
                ok = ok and passed
                print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rcumem", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_flags(sp, lam_grid=True):
        sp.add_argument("--alpha", required=True, help="write-rate grid")
        if lam_grid:
            sp.add_argument("--lambda", dest="lam", required=True, help="read arrival-rate grid")
            sp.add_argument("--mu", default="1", help="read service-rate grid (default 1)")
        else:
            sp.add_argument("--lambda", dest="lam", required=True, help="read arrival rate (scalar)")
            sp.add_argument("--mu", default="1", help="read service rate (scalar, default 1)")
        sp.add_argument("--out", default=None, help="output CSV path (default stdout)")

    sp = sub.add_parser("analytic", help="closed-form sweep")
    add_grid_flags(sp)
    sp.set_defaults(func=cmd_analytic)

    sp = sub.add_parser("simulate", help="sweep with simulation cross-check")
    add_grid_flags(sp)
    sp.add_argument("--seed", type=int, default=1, help="base seed")
    sp.add_argument("--publications", type=int, default=100_000, help="measured publications per point")
    sp.add_argument("--batches", type=int, default=20, help="batch count for CIs")
    sp.add_argument("--check", action="store_true", help="exit 1 if simulation and analysis disagree")
    sp.add_argument("--histogram", action="store_true", help="also emit the time-weighted N distribution")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("tradeoff", help="age/footprint trade-off over alpha")
    add_grid_flags(sp, lam_grid=False)
    sp.set_defaults(func=cmd_tradeoff)

    sp = sub.add_parser("validate", help="run the oracle grid")
    sp.add_argument("--samples", type=int, default=1_000_000, help="Monte Carlo samples per check")
    sp.add_argument("--seed", type=int, default=1)
    sp.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, DomainError, ConfigError, ConvergenceError, OSError, MemoryError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
