"""End-to-end acceptance checks: simulation against closed forms, oracle
cross-validation, figure-shape properties, and CLI determinism.

Each test states its tolerance inline. Grid points run as separate
parametrized cases so a localized disagreement shows up as a localized
failure rather than hiding the points that do agree.
"""
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import poisson

import rcumem
from rcumem.core import ModelParams, RandomSource
from rcumem.analytics import (
    avg_age,
    en_bound_jensen,
    en_bound_simple,
    en_exact,
    p_ek_quadrature,
    p_ek_series,
)
from rcumem.simulator import SimConfig, simulate
from rcumem.validation import appendix_identity_checks, lemma1_cells
from rcumem.analytics import lemma1_epsilon

GRID = [(a, l) for a in (0.5, 1.0, 2.0, 5.0, 10.0, 100.0) for l in (1.0, 5.0, 10.0)]


class TestAgeLaw:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
    def test_time_average_age_is_two_over_alpha(self, alpha):
        p = ModelParams(alpha, 1.0, 1.0)
        t0 = time.monotonic()
        stats = simulate(p, SimConfig(seed=101, horizon_publications=100_000))
        elapsed = time.monotonic() - t0
        target = avg_age(p)
        assert target == 2.0 / alpha
        assert abs(stats.mean_age - target) <= 0.02 * target, (
            f"simulated age {stats.mean_age:.5f} vs {target:.5f}"
        )
        assert elapsed < 10.0


class TestFootprint:
    @pytest.mark.parametrize("alpha,lam", GRID)
    def test_simulated_mean_matches_series(self, alpha, lam):
        # tolerance: max(3 batch-means CI half-widths, 2% relative). The
        # series footprint treats each residual reader's deadline as
        # independent although the elapsed time is shared per update, so
        # it overstates E[N]; the gap is largest at small alpha and large
        # lam (see the shared-deadline quadrature in rcumem.validation).
        p = ModelParams(alpha, lam, 1.0)
        t0 = time.monotonic()
        stats = simulate(p, SimConfig(seed=202, horizon_publications=200_000))
        elapsed = time.monotonic() - t0
        target = en_exact(p).en_exact
        tol = max(3.0 * stats.ci_half_width_n, 0.02 * target)
        # a local, so a failure prints the mean and not the whole SimStats repr
        mean_n = stats.mean_active_updates
        assert elapsed < 60.0
        assert abs(mean_n - target) <= tol, (
            f"simulated E[N]={mean_n:.5f} vs series {target:.5f} "
            f"(CI half-width {stats.ci_half_width_n:.5f}, allowed {tol:.5f})"
        )


class TestBoundChain:
    @pytest.mark.parametrize("alpha,lam", GRID)
    def test_on_grid(self, alpha, lam):
        p = ModelParams(alpha, lam, 1.0)
        exact = en_exact(p).en_exact
        jensen = en_bound_jensen(p)
        simple = en_bound_simple(p)
        assert exact <= jensen + 1e-9
        assert jensen <= simple + 1e-9

    def test_random_triples(self):
        rs = RandomSource(404, "bound-chain")
        for _ in range(200):
            alpha = float(10.0 ** (3.0 * rs.uniform(1)[0] - 1.5))
            lam = float(10.0 ** (3.0 * rs.uniform(1)[0] - 1.5))
            mu = float(10.0 ** (2.0 * rs.uniform(1)[0] - 1.0))
            p = ModelParams(alpha, lam, mu)
            exact = en_exact(p).en_exact
            jensen = en_bound_jensen(p)
            simple = en_bound_simple(p)
            assert exact <= jensen + 1e-9, p
            assert jensen <= simple + 1e-9, p


class TestSeriesQuadratureEquivalence:
    @pytest.mark.parametrize("alpha,lam", GRID)
    def test_agree_to_1e8(self, alpha, lam):
        # includes alpha/mu < 1 (alpha=0.5, mu=1), where the quadrature
        # needs the singular-endpoint substitution
        p = ModelParams(alpha, lam, 1.0)
        for k in range(1, 21):
            s = p_ek_series(p, k)
            q = p_ek_quadrature(p, k)
            assert abs(s - q) <= 1e-8, f"k={k}: series={s!r} quad={q!r}"


@pytest.fixture(scope="module")
def lemma1_estimates():
    """1e6-sample Lemma 1 estimates keyed by (alpha, mu, k, w), one shared draw per k."""
    out = {}
    for k in (1, 2, 5):
        cells = [(ModelParams(a, 1.0, m), w) for a in (0.5, 1.0, 2.0) for m in (0.5, 1.0, 2.0) for w in (0.1, 1.0, 5.0)]
        for (p, w), est in zip(cells, lemma1_cells(k, cells, 1_000_000, seed=505 + k)):
            out[p.alpha, p.mu, k, w] = est
    return out


class TestLockOutlastProbability:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_monte_carlo_brackets_closed_form(self, alpha, mu, lemma1_estimates):
        # 3.5 standard errors, 1e6 samples per cell
        p = ModelParams(alpha, 1.0, mu)
        for k in (1, 2, 5):
            for w in (0.1, 1.0, 5.0):
                target = lemma1_epsilon(p, k, w)
                est = lemma1_estimates[alpha, mu, k, w]
                assert abs(est.estimate - target) <= 3.5 * est.std_error, (
                    f"k={k} w={w}: mc={est.estimate:.6f} closed={target:.6f} "
                    f"se={est.std_error:.2e}"
                )


class TestIntegralIdentities:
    def test_numeric_matches_closed_to_1e6(self):
        for name, numeric, closed, err in appendix_identity_checks():
            assert err <= 1e-6, f"{name}: numeric={numeric} closed={closed}"


class TestFastWriterPoissonLimit:
    def test_stale_count_approaches_poisson(self):
        # alpha=1000 >> lam=10: N-1 should be close to Poisson(lam/mu)=Poisson(10)
        p = ModelParams(1000.0, 10.0, 1.0)
        t0 = time.monotonic()
        stats = simulate(
            p,
            SimConfig(seed=707, horizon_publications=8_000_000, sample_n_distribution=True),
        )
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0

        target = en_exact(p).en_exact
        assert target < 11.0  # approaches 1 + lam/mu from below
        assert abs(stats.mean_active_updates - target) <= 3.0 * stats.ci_half_width_n

        # total-variation distance between the time-weighted law of N-1
        # and Poisson(10), over the observed support plus the Poisson tail
        max_n = max(stats.n_histogram)
        ks = np.arange(0, max_n + 1)
        pois = poisson.pmf(ks, 10.0)
        emp = np.array([stats.n_histogram.get(int(k) + 1, 0.0) for k in ks])
        tv = 0.5 * (np.abs(emp - pois).sum() + (1.0 - pois.sum()))
        assert tv <= 0.02, f"TV distance {tv:.4f}"


class TestFigureShapes:
    def test_footprint_nondecreasing_in_lambda(self):
        for alpha in (0.5, 1.0, 2.0, 10.0):
            ens = [en_exact(ModelParams(alpha, lam, 1.0)).en_exact for lam in np.linspace(0.0, 20.0, 21)]
            assert all(a <= b + 1e-12 for a, b in zip(ens, ens[1:])), f"alpha={alpha}"

    def test_tradeoff_curve_shape(self):
        alphas = np.geomspace(0.1, 100.0, 40)
        ages = [avg_age(ModelParams(a, 5.0, 1.0)) for a in alphas]
        ens = [en_exact(ModelParams(a, 5.0, 1.0)).en_exact for a in alphas]
        assert all(a > b for a, b in zip(ages, ages[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(ens, ens[1:]))

    @pytest.mark.parametrize("lam", [1.0, 5.0, 10.0])
    def test_first_bound_tracks_exact_within_15_percent(self, lam):
        # claimed tight for all alpha; measured worst relative gap on this
        # grid is ~56% (lam=10, small alpha), so the 15% figure does not hold
        worst = 0.0
        for alpha in np.geomspace(0.1, 100.0, 40):
            p = ModelParams(alpha, lam, 1.0)
            exact = en_exact(p).en_exact
            gap = (en_bound_jensen(p) - exact) / exact
            worst = max(worst, gap)
        assert worst <= 0.15, f"worst relative gap {worst:.4f} at lam={lam}"

    def test_second_bound_is_fast_writer_asymptote(self):
        for lam in (1.0, 5.0, 10.0):
            simple = en_bound_simple(ModelParams(1.0, lam, 1.0))
            assert simple == 1.0 + lam
            en_fast = en_exact(ModelParams(2000.0, lam, 1.0)).en_exact
            assert simple * (1.0 - 5e-3) <= en_fast < simple


def _child_env():
    # a child interpreter imports the same rcumem as this test, installed or not
    path = [str(Path(rcumem.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


class TestCliDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analytic", "--alpha", "0.1:100:10:log", "--lambda", "1,5,10", "--mu", "1"],
            ["simulate", "--alpha", "1,2", "--lambda", "3", "--mu", "1",
             "--publications", "5000", "--batches", "10", "--seed", "12345"],
            ["tradeoff", "--alpha", "0.5:8:5:log", "--lambda", "5", "--mu", "1"],
        ],
    )
    def test_byte_identical_repeat(self, argv):
        cmd = [sys.executable, "-m", "rcumem.cli"] + argv
        env = _child_env()
        a = subprocess.run(cmd, capture_output=True, env=env)
        b = subprocess.run(cmd, capture_output=True, env=env)
        assert a.returncode == 0
        assert a.returncode == b.returncode
        assert a.stdout == b.stdout


class TestCliImport:
    def test_no_quadrature_or_mpmath_at_startup(self):
        # every subcommand pays for what importing rcumem.cli pulls in
        code = "import sys, rcumem.cli; print(*[m for m in ('scipy.integrate', 'mpmath') if m in sys.modules])"
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == ""

    def test_no_scipy_on_analytic_simulate_or_tradeoff(self):
        # the grids reach both ways the Kummer function is taken (the Poisson sum
        # at r < 10 with b < 150, the Gauss-Laguerre rule elsewhere), and so do
        # the p_ek_series and p_ek_quadrature calls
        code = "\n".join(
            [
                "import contextlib, io, sys, numpy as np, rcumem.cli",
                "from rcumem import analytics",
                "from rcumem.core import ModelParams",
                "for argv in (",
                "    ['analytic', '--alpha', '0.01:1000:9:log', '--lambda', '0,1,1000', '--mu', '1'],",
                "    ['simulate', '--alpha', '1', '--lambda', '2', '--publications', '1000', '--batches', '10'],",
                "    ['tradeoff', '--alpha', '0.5:50:4:log', '--lambda', '500'],",
                "):",
                "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
                "        assert rcumem.cli.main(argv) == 0, argv",
                "for p in (ModelParams(0.5, 10, 1), ModelParams(2, 500, 1), ModelParams(50, 1, 1), ModelParams(50, 1e4, 1)):",
                "    for k in (1, np.arange(1, 21)):",
                "        analytics.p_ek_series(p, k), analytics.p_ek_quadrature(p, k)",
                "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
            ]
        )
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == ""

    def test_no_thread_pool_on_analytic_simulate_or_tradeoff(self):
        # only validate runs its checks on a thread pool; the other subcommands
        # do not pay to import concurrent.futures, nor to build a Gauss-Legendre
        # rule, which core builds on the first call that needs one
        code = "\n".join(
            [
                "import contextlib, io, sys, numpy as np",
                "built, leggauss = [], np.polynomial.legendre.leggauss",
                "np.polynomial.legendre.leggauss = lambda n: built.append(f'leggauss({n})') or leggauss(n)",
                "import rcumem.cli",
                "for argv in (",
                "    ['analytic', '--alpha', '0.5,2', '--lambda', '0,10', '--mu', '1'],",
                "    ['simulate', '--alpha', '1', '--lambda', '2', '--publications', '1000', '--batches', '10'],",
                "    ['tradeoff', '--alpha', '0.5:50:4:log', '--lambda', '5'],",
                "):",
                "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
                "        assert rcumem.cli.main(argv) == 0, argv",
                "print(*sorted(m for m in sys.modules if m == 'concurrent' or m.startswith('concurrent.')), *built)",
            ]
        )
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == ""

    def test_no_gauss_laguerre_rule_on_read_heavy_simulate(self):
        # only r = alpha/mu >= 10, or b_k >= 150, takes _kummer_m's Gauss-Laguerre rule, which core
        # builds on first use; below that, numpy.polynomial is not even imported
        code = "\n".join(
            [
                "import contextlib, io, sys, rcumem.cli",
                "from rcumem import core",
                "from rcumem.core import ModelParams",
                "from rcumem.simulator import SimConfig, simulate",
                "simulate(ModelParams(2, 5, 1), SimConfig(horizon_publications=1000, batch_count=10))",
                "argv = ['simulate', '--alpha', '0.5,1,2', '--lambda', '5,10', '--mu', '1', '--histogram',",
                "        '--publications', '1000', '--batches', '10']",
                "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
                "    assert rcumem.cli.main(argv) == 0",
                "assert core._laggauss.cache_info().currsize == 0",
                "print(*sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))",
            ]
        )
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == ""

    def test_no_scipy_on_validate(self):
        # every oracle in rcumem.validation runs on numpy's Gauss-Legendre nodes,
        # the joint quadrature too, though validate does not call it
        code = "\n".join(
            [
                "import contextlib, io, sys, rcumem.cli",
                "from rcumem import validation",
                "from rcumem.core import ModelParams",
                "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
                "    assert rcumem.cli.main(['validate', '--samples', '10000']) in (0, 1)",
                "validation.p_ek_joint_quadrature(ModelParams(1, 1, 1), 1)",
                "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
            ]
        )
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == ""
