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
from dataclasses import dataclass

import numpy as np

from .core import ConvergenceError, DomainError, ModelParams
from . import analytics
from .simulator import ConfigError, SimConfig, simulate

CSV_HEADER = "alpha,lambda,mu,en_exact,en_bound_jensen,en_bound_simple,avg_age,sim_en,sim_en_ci,sim_age,sim_age_ci,seed"

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    lam: float
    mu: float
    en_exact: float
    en_bound_jensen: float
    en_bound_simple: float
    avg_age: float
    sim_en: float | None = None
    sim_en_ci: float | None = None
    sim_age: float | None = None
    sim_age_ci: float | None = None
    seed: int | None = None

    def csv(self) -> str:
        def num(v):
            return "" if v is None else repr(float(v))

        seed = "" if self.seed is None else str(self.seed)
        return ",".join(
            [
                repr(float(self.alpha)),
                repr(float(self.lam)),
                repr(float(self.mu)),
                repr(float(self.en_exact)),
                repr(float(self.en_bound_jensen)),
                repr(float(self.en_bound_simple)),
                repr(float(self.avg_age)),
                num(self.sim_en),
                num(self.sim_en_ci),
                num(self.sim_age),
                num(self.sim_age_ci),
                seed,
            ]
        )


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


def _analytic_row(p: ModelParams) -> SweepRow:
    rep = analytics.en_exact(p)
    return SweepRow(
        alpha=p.alpha,
        lam=p.lam,
        mu=p.mu,
        en_exact=rep.en_exact,
        en_bound_jensen=rep.en_bound_jensen,
        en_bound_simple=rep.en_bound_simple,
        avg_age=analytics.avg_age(p),
    )


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
        buf.write(_analytic_row(p).csv() + "\n")
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_simulate(args) -> int:
    points = _grid_points(args)
    config_kw = dict(
        horizon_publications=args.publications,
        batch_count=args.batches,
        sample_n_distribution=args.histogram,
    )
    if args.warmup is not None:
        config_kw["warmup_time"] = args.warmup

    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    worst = 0.0
    failed = False
    hist_lines: list[str] = []
    for i, p in enumerate(points):
        seed = point_seed(args.seed, i)
        row = _analytic_row(p)
        st = simulate(p, SimConfig(seed=seed, **config_kw))
        row = SweepRow(
            **{
                **row.__dict__,
                "sim_en": st.mean_active_updates,
                "sim_en_ci": st.ci_half_width_n,
                "sim_age": st.mean_age,
                "sim_age_ci": st.ci_half_width_age,
                "seed": seed,
            }
        )
        buf.write(row.csv() + "\n")
        dev = abs(st.mean_active_updates - row.en_exact)
        if st.ci_half_width_n > 0:
            worst = max(worst, dev / st.ci_half_width_n)
        if dev > max(3.0 * st.ci_half_width_n, 0.02 * row.en_exact):
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
    from . import validation  # importing it builds the quadrature rules (~7 ms); only validate needs them

    samples = args.samples
    seed = args.seed
    ok = True

    def report(name: str, passed: bool, detail: str) -> None:
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")

    # Lemma 1 Monte Carlo against the closed form, one shared draw per k
    for k in (1, 2, 5):
        cells = [
            (ModelParams(alpha, 1.0, mu), w)
            for w in (0.1, 1.0, 5.0)
            for alpha in (0.5, 1.0, 2.0)
            for mu in (0.5, 1.0, 2.0)
        ]
        for (p, w), est in zip(cells, validation.lemma1_cells(k, cells, samples, seed)):
            target = analytics.lemma1_epsilon(p, k, w)
            dev = abs(est.estimate - target)
            passed = dev <= 3.5 * max(est.std_error, 1e-12)
            report(
                f"lemma1 k={k} w={w} alpha={p.alpha} mu={p.mu}",
                passed,
                f"mc={est.estimate:.6f} closed={target:.6f} dev={dev:.2e} se={est.std_error:.2e}",
            )

    # grace-period survival: Monte Carlo vs the series form
    for alpha, lam, mu, k in [(1.0, 1.0, 1.0, 1), (1.0, 10.0, 1.0, 1), (2.0, 5.0, 1.0, 2)]:
        p = ModelParams(alpha, lam, mu)
        series = analytics.p_ek_series(p, k)
        est = validation.mc_p_ek(p, k, samples, seed)
        dev = abs(est.estimate - series)
        passed = dev <= 3.5 * max(est.std_error, 1e-12)
        report(
            f"p_ek mc-vs-series alpha={alpha} lam={lam} mu={mu} k={k}",
            passed,
            f"mc={est.estimate:.6f} series={series:.6f} dev={dev:.2e} se={est.std_error:.2e}",
        )

    # series vs quadrature, one array call of each over k per (alpha, lam)
    worst = 0.0
    ks = np.arange(1, 21)
    for alpha in (0.5, 1.0, 2.0, 5.0, 10.0, 100.0):
        for lam in (1.0, 5.0, 10.0):
            p = ModelParams(alpha, lam, 1.0)
            dev = np.abs(analytics.p_ek_series(p, ks) - analytics.p_ek_quadrature(p, ks))
            worst = max(worst, float(dev.max()))
    report("series-vs-quadrature grid", worst <= args.quad_tol, f"max dev={worst:.2e} tol={args.quad_tol:g}")

    # appendix integral identities
    checks = validation.appendix_identity_checks()
    worst_name, worst_err = max(((n, e) for n, _, _, e in checks), key=lambda t: t[1])
    report("appendix identities", worst_err <= 1e-6, f"max dev={worst_err:.2e} at {worst_name}")

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
    sp.add_argument("--warmup", type=float, default=None, help="warmup time (default auto)")
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
