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
    import functools
    import os
    from concurrent.futures import ThreadPoolExecutor

    from . import validation  # importing it builds the quadrature rules (~7 ms); only validate needs them

    samples = args.samples
    seed = args.seed
    if not args.quad_tol >= 0:  # NaN too, which would fail the grid check after every other check ran
        raise ValueError(f"--quad-tol must be >= 0, got {args.quad_tol}")

    cells = [
        (ModelParams(alpha, 1.0, mu), w)
        for w in (0.1, 1.0, 5.0)
        for alpha in (0.5, 1.0, 2.0)
        for mu in (0.5, 1.0, 2.0)
    ]

    def lemma1_job(k: int):
        # Lemma 1 Monte Carlo against the closed form, one shared draw per k
        lines = []
        for (p, w), est in zip(cells, validation.lemma1_cells(k, cells, samples, seed)):
            target = analytics.lemma1_epsilon(p, k, w)
            dev = abs(est.estimate - target)
            lines.append((
                f"lemma1 k={k} w={w} alpha={p.alpha} mu={p.mu}",
                dev <= 3.5 * max(est.std_error, 1e-12),
                f"mc={est.estimate:.6f} closed={target:.6f} dev={dev:.2e} se={est.std_error:.2e}",
            ))
        return lines

    def p_ek_job(alpha: float, lam: float, mu: float, k: int):
        # grace-period survival: Monte Carlo vs the series form
        p = ModelParams(alpha, lam, mu)
        series = analytics.p_ek_series(p, k)
        est = validation.mc_p_ek(p, k, samples, seed)
        dev = abs(est.estimate - series)
        return [(
            f"p_ek mc-vs-series alpha={alpha} lam={lam} mu={mu} k={k}",
            dev <= 3.5 * max(est.std_error, 1e-12),
            f"mc={est.estimate:.6f} series={series:.6f} dev={dev:.2e} se={est.std_error:.2e}",
        )]

    def quadrature_job():
        # series vs quadrature, one array call of each over k per (alpha, lam)
        worst = 0.0
        ks = np.arange(1, 21)
        for alpha in (0.5, 1.0, 2.0, 5.0, 10.0, 100.0):
            for lam in (1.0, 5.0, 10.0):
                p = ModelParams(alpha, lam, 1.0)
                dev = np.abs(analytics.p_ek_series(p, ks) - analytics.p_ek_quadrature(p, ks))
                worst = max(worst, float(dev.max()))
        return [("series-vs-quadrature grid", worst <= args.quad_tol, f"max dev={worst:.2e} tol={args.quad_tol:g}")]

    def appendix_job():
        # appendix integral identities
        checks = validation.appendix_identity_checks()
        worst_name, worst_err = max(((n, e) for n, _, _, e in checks), key=lambda t: t[1])
        return [("appendix identities", worst_err <= 1e-6, f"max dev={worst_err:.2e} at {worst_name}")]

    # Eight independent jobs in report order, each returning its report lines.
    # Each Monte Carlo oracle draws only from its own RandomSource(seed,
    # stream), so running the jobs at once, one thread per usable core,
    # changes no draw; most of their time is in numpy calls that release the
    # GIL. No job peaks much above 1.6 MiB (mc_p_ek streams its chunk, the
    # appendix checks go in slices), as each thread's malloc arena keeps about
    # what its largest job held.
    jobs = [
        *(functools.partial(lemma1_job, k) for k in (1, 2, 5)),
        *(
            functools.partial(p_ek_job, *point)
            for point in [(1.0, 1.0, 1.0, 1), (1.0, 10.0, 1.0, 1), (2.0, 5.0, 1.0, 2)]
        ),
        quadrature_job,
        appendix_job,
    ]
    ok = True
    # map yields in job order, so the output is a serial run's; a job's error
    # is raised after the lines before it and cancels the jobs not yet started
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        for lines in pool.map(lambda job: job(), jobs):
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
    sp.add_argument("--quad-tol", type=float, default=1e-8, help="series-vs-quadrature tolerance")
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
    except (ValueError, DomainError, ConfigError, ConvergenceError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
