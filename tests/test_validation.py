import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import gammaincc

from rcumem.core import ConvergenceError, DomainError, ModelParams
from rcumem.analytics import lemma1_epsilon, p_ek_quadrature, p_ek_series
from rcumem import validation
from rcumem.validation import (
    appendix_identity_checks,
    fy_density,
    fy_normalization,
    gamma_l_pdf,
    i1_closed,
    i1_numeric,
    i3_closed,
    i3_numeric,
    i4_closed,
    i4_numeric,
    lemma1_cells,
    lemma1_cells_by_k,
    lemma1_numeric,
    mc_p_ek,
    p_ek_joint_quadrature,
)


class TestFyDensity:
    def test_below_support(self):
        assert fy_density(1.0, 1.0, -2.0) == 0.0

    def test_continuous_at_zero(self):
        left = fy_density(1.0, 1.0, -1e-12)
        right = fy_density(1.0, 1.0, 1e-12)
        target = 1.0 - math.exp(-1.0)
        assert left == pytest.approx(target, abs=1e-9)
        assert right == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("w", [0.1, 1.0, 10.0])
    def test_normalization(self, mu, w):
        assert fy_normalization(mu, w) == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative(self):
        for y in (-0.99, -0.5, 0.0, 0.3, 2.0, 20.0):
            assert fy_density(2.0, 1.0, y) >= 0.0

    def test_invalid_w(self):
        with pytest.raises(DomainError):
            fy_density(1.0, 0.0, 0.5)


class TestGammaPdf:
    def test_exponential_at_zero(self):
        assert gamma_l_pdf(1.0, 1, 0.0) == 1.0

    def test_exponential_point(self):
        assert gamma_l_pdf(2.0, 1, 1.0) == pytest.approx(2 * math.exp(-2.0), abs=1e-12)

    def test_sampled_mean_matches(self):
        from rcumem.core import RandomSource

        x = RandomSource(1, "g").gamma_int(3, 1.0, 200_000)
        se = x.std() / math.sqrt(len(x))
        assert abs(x.mean() - 3.0) <= 3 * se

    def test_invalid(self):
        with pytest.raises(DomainError):
            gamma_l_pdf(1.0, 0, 1.0)
        with pytest.raises(DomainError):
            gamma_l_pdf(1.0, 1, -0.5)


class TestMcLemma1:
    def test_small_window_is_half(self):
        p = ModelParams(1, 1, 1)
        est = lemma1_cells(1, [(p, 1e-3)], 1_000_000, seed=2)[0]
        assert est.estimate == pytest.approx(0.5, abs=3.5 * est.std_error + 1e-3)

    def test_unit_point_k2(self):
        p = ModelParams(1, 1, 1)
        est = lemma1_cells(2, [(p, 1.0)], 1_000_000, seed=3)[0]
        assert abs(est.estimate - 0.8419698602928606) <= 3.5 * est.std_error

    def test_fast_writer(self):
        p = ModelParams(3, 1, 1)
        target = lemma1_epsilon(p, 1, 2.0)
        est = lemma1_cells(1, [(p, 2.0)], 1_000_000, seed=4)[0]
        assert abs(est.estimate - target) <= 3.5 * est.std_error

    def test_std_error_bound(self):
        est = lemma1_cells(1, [(ModelParams(1, 1, 1), 1.0)], 40_000, seed=5)[0]
        assert est.std_error <= 0.5 / math.sqrt(est.samples)

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            lemma1_cells(1, [(ModelParams(1, 1, 1), 1.0)], 100, seed=1)

    def test_nan_window_rejected(self):
        # every comparison with NaN is false, so a `w <= 0` check lets it through
        with pytest.raises(DomainError):
            lemma1_cells(1, [(ModelParams(1, 1, 1), math.nan)], 10_000, 1)

    def test_std_error_near_certainty(self):
        # 1 - p is 3.2e-5, so 2e5 samples expect 6.4 misses; this seed draws 1.
        # The plug-in se sqrt(p(1-p)/n) shrinks with the misses and put it 5.4 se out.
        p = ModelParams(0.5, 1.0, 2.0)
        est = lemma1_cells(5, [(p, 5.0)], 200_000, seed=8)[0]
        assert round((1.0 - est.estimate) * est.samples) == 1
        assert abs(est.estimate - lemma1_epsilon(p, 5, 5.0)) <= 5.0 * est.std_error


# hits of the 81 `rcumem validate` Lemma 1 cells (w, alpha, mu in that loop
# order) at 20,000 samples and seed 1, each drawn separately, one cell per
# call, before the draws were shared
LEMMA1_HITS = {
    1: [10248, 13581, 16310, 6929, 10489, 13896, 4355, 7257, 10953,
        12124, 15716, 18254, 9574, 13651, 17072, 7439, 11605, 15644,
        16310, 18666, 19607, 15085, 18029, 19334, 14126, 17352, 19018],
    2: [15162, 17880, 19239, 11341, 15291, 17987, 7472, 11537, 15516,
        16082, 18570, 19634, 13070, 16819, 19015, 9963, 14426, 17805,
        18126, 19532, 19909, 16717, 18955, 19763, 15334, 18216, 19474],
    5: [19376, 19922, 19995, 17444, 19386, 19926, 13644, 17506, 19414,
        19493, 19947, 19997, 17929, 19594, 19966, 14891, 18316, 19738,
        19772, 19987, 20000, 19000, 19875, 19994, 17589, 19474, 19942],
}
VALIDATE_CELLS = [
    (ModelParams(alpha, 1.0, mu), w)
    for w in (0.1, 1.0, 5.0)
    for alpha in (0.5, 1.0, 2.0)
    for mu in (0.5, 1.0, 2.0)
]


class TestLemma1Cells:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_shared_draw_reproduces_separate_draws(self, k):
        ests = lemma1_cells(k, VALIDATE_CELLS, 20_000, seed=1)
        assert [e.estimate for e in ests] == [h / 20_000 for h in LEMMA1_HITS[k]]

    @pytest.mark.parametrize("samples", [200_000, 1_000_000])
    def test_memory_does_not_grow_with_samples(self, samples):
        # held whole, the k = 5 unit draws alone are 7 doubles per sample: 10.7 MiB at 2e5, 53 MiB at 1e6
        tracemalloc.start()
        try:
            lemma1_cells(5, VALIDATE_CELLS, samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_one_pass_over_k_gives_each_k_its_own_pass(self):
        # 50_001 samples end on a part block; every k takes the same U and X
        ks = (1, 2, 5, 2)
        by_k = lemma1_cells_by_k(ks, VALIDATE_CELLS, 50_001, seed=6)
        assert by_k == [lemma1_cells_by_k((k,), VALIDATE_CELLS, 50_001, seed=6)[0] for k in ks]
        assert by_k[1] == lemma1_cells(2, VALIDATE_CELLS, 50_001, seed=6)

    @pytest.mark.parametrize("samples", [200_000, 1_000_000])
    def test_one_pass_over_k_memory_does_not_grow_with_samples(self, samples):
        # the nine Y arrays of a block are 1.1 MiB, beside one k's Gamma(k, 1) draw and its scaled copies
        tracemalloc.start()
        try:
            lemma1_cells_by_k((1, 2, 5), VALIDATE_CELLS, samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    @pytest.mark.parametrize(
        "k,cells,samples",
        [
            (1, [(ModelParams(1, 1, 1), 1.0), (ModelParams(1, 1, 1), 0.0)], 20_000),
            (1, [(ModelParams(1, 1, 1), 1.0), (ModelParams(1, 1, 1), -1.0)], 20_000),
            (0, [(ModelParams(1, 1, 1), 1.0)], 20_000),
            (1, [(ModelParams(1, 1, 1), 1.0)], 9_999),
            (1, [(ModelParams(1, 1, 1), 1.0), (ModelParams(0, 1, 1), 1.0)], 20_000),
            (1, [(ModelParams(1, 1, 1), 1.0), (ModelParams(1, 1, math.nan), 1.0)], 20_000),
        ],
    )
    def test_invalid_cell(self, k, cells, samples):
        with pytest.raises(DomainError):
            lemma1_cells(k, cells, samples, seed=1)


class TestMcPEk:
    def test_no_readers_exact_one(self):
        est = mc_p_ek(ModelParams(1, 0, 1), 1, 20_000, seed=1)
        assert est.estimate == 1.0
        assert est.std_error == 0.0

    def test_reader_mean_past_numpy_poisson_range_is_domain_error(self):
        with pytest.raises(DomainError):
            mc_p_ek(ModelParams(1, 1e19, 1), 1, 10_000, 1)

    @pytest.mark.parametrize(
        "params,k,samples,seed,estimate",
        [
            (ModelParams(1, 1, 1), 1, 200_000, 2, 0.79762),
            (ModelParams(3, 7, 1), 3, 200_000, 9, 0.573605),
            (ModelParams(1, 10, 1), 1, 200_000, 5, 0.2872),
            # two full chunks and a half one
            (ModelParams(2, 5, 1), 2, 250_000, 4, 0.572152),
        ],
    )
    def test_pinned_estimates(self, params, k, samples, seed, estimate):
        # exact values captured before the per-sample maximum; they depend on
        # numpy's Poisson sampler
        assert mc_p_ek(params, k, samples, seed).estimate == estimate

    def test_memory_is_per_chunk_and_block(self):
        # about 1e6 readers per 1e5-sample chunk at lambda = 10 (7.6 MiB per
        # per-reader array) are drawn in blocks of about 16k; what is left is
        # the chunk's per-sample w, m, L and reader offsets
        tracemalloc.start()
        try:
            mc_p_ek(ModelParams(1, 10, 1), 1, 200_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_memory_is_streamed_through_the_chunk(self):
        # the counts m, and w and L beside the readers, come in blocks too:
        # what is held whole is the chunk's int64 reader offsets (0.8 MiB)
        tracemalloc.start()
        try:
            mc_p_ek(ModelParams(1, 10, 1), 1, 200_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    @pytest.mark.parametrize(
        "params,k",
        [
            (ModelParams(1, 1, 1), 1),
            (ModelParams(1, 10, 1), 1),
            (ModelParams(2, 5, 1), 2),
        ],
    )
    def test_brackets_joint_quadrature(self, params, k):
        # the sampled construction keeps one shared elapsed time per update,
        # exactly what the joint quadrature integrates
        target = p_ek_joint_quadrature(params, k)
        est = mc_p_ek(params, k, 400_000, seed=9)
        assert abs(est.estimate - target) <= 3.5 * est.std_error

    # perfbench/judge.py's P_EK_SHARED, the benchmark's references for the `validate` p_ek lines
    @pytest.mark.parametrize(
        "params,k,reference",
        [
            (ModelParams(1, 1, 1), 1, 0.7965995992970298),
            (ModelParams(1, 10, 1), 1, 0.28798049148621685),
            (ModelParams(2, 5, 1), 2, 0.5718331693839354),
        ],
    )
    def test_joint_quadrature_pins(self, params, k, reference):
        assert abs(p_ek_joint_quadrature(params, k) - reference) <= 1e-12

    # nested scipy quad over the full ranges at 1e-14; a Gamma window of mean - 12 sd to
    # mean + 14 sd dropped e^-15 of the k = 1 mass and was 2.6e-9 and 2.9e-9 off here
    @pytest.mark.parametrize(
        "params,k,reference",
        [
            (ModelParams(1.031468244956408, 0.5580436989019288, 0.06501466729799223), 1, 0.6723105727261913),
            (ModelParams(4.655562650882352, 27.22824249867597, 0.22345497230465172), 1, 0.15316278316421167),
        ],
    )
    def test_joint_quadrature_keeps_the_gamma_tail(self, params, k, reference):
        assert abs(p_ek_joint_quadrature(params, k) - reference) <= 1e-12

    def test_joint_rule_matches_a_48_node_rule(self, monkeypatch):
        rng = np.random.default_rng(2026)
        points = [
            (ModelParams(*(10.0 ** rng.uniform(-3, 3, 3)).tolist()), int(rng.integers(1, 51)))
            for _ in range(12)
        ]
        got = [p_ek_joint_quadrature(params, k) for params, k in points]
        monkeypatch.setattr(validation, "_JOINT", validation._dyadic_legendre(48, 61))
        for (params, k), v in zip(points, got):
            assert abs(v - p_ek_joint_quadrature(params, k)) <= 1e-9, (params, k)

    @pytest.mark.parametrize("k", [0, 1.5, 51])
    def test_joint_quadrature_rejects_shapes_off_the_rule(self, k):
        with pytest.raises(DomainError):
            p_ek_joint_quadrature(ModelParams(1, 1, 1), k)

    def test_joint_quadrature_overflowing_load_is_convergence_error(self):
        with pytest.raises(ConvergenceError):
            p_ek_joint_quadrature(ModelParams(1e-300, 1e300, 1e-10), 1)

    def test_bracket_of_series_form(self):
        # the series form averages each reader's deadline independently,
        # which overstates survival whenever several readers share an update;
        # the sampled probability therefore sits above it
        params, k = ModelParams(1.0, 1.0, 1.0), 1
        series = p_ek_series(params, k)
        est = mc_p_ek(params, k, 1_000_000, seed=10)
        assert abs(est.estimate - series) <= 3.5 * est.std_error, (
            f"sampled grace-period probability {est.estimate:.6f} does not bracket "
            f"the independent-deadline series value {series:.6f} "
            f"(deviation {abs(est.estimate - series) / est.std_error:.0f} standard errors); "
            "the series treats the shared elapsed time as independent per reader"
        )


class TestAppendixIdentities:
    def test_i1_unit(self):
        assert i1_closed(1.0, 1.0) == pytest.approx(1.0 + (math.exp(-1.0) - 1.0), abs=1e-12)
        assert i1_numeric(1.0, 1.0) == pytest.approx(i1_closed(1.0, 1.0), abs=1e-9)

    def test_full_grid(self):
        for name, numeric, closed, err in appendix_identity_checks():
            assert err <= 1e-6, f"{name}: numeric={numeric} closed={closed} err={err}"

    def test_slices_give_the_values_of_one_call(self, monkeypatch):
        sliced = appendix_identity_checks()
        for rows in (81, 5):  # the whole default grid in one call; a slice size that does not divide it
            monkeypatch.setattr(validation, "_APPENDIX_ROWS", rows)
            assert appendix_identity_checks() == sliced

    def test_memory_is_per_slice(self):
        # the whole 81-row default grid in one call peaked at 2.9 MiB
        tracemalloc.start()
        try:
            appendix_identity_checks()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20

    def test_lemma1_numeric_matches_closed_to_1e13(self):
        checks = [c for c in appendix_identity_checks() if c[0].startswith("Lemma1")]
        assert len(checks) == 81
        for name, numeric, closed, err in checks:
            assert err <= 1e-13, f"{name}: numeric={numeric} closed={closed} err={err}"

    @pytest.mark.parametrize(
        "alpha,mu,k,w",
        [(1.0, 1.0, 1, 1e-3), (0.5, 0.5, 20, 1e-3), (1.0, 1.0, 20, 1.0), (10.0, 1.0, 1, 1.0), (10.0, 2.0, 20, 1e-3),
         # alpha y underflows to 0 at the first nodes, where Q(k, 0) = 1
         (1e-300, 1.0, 3, 1.0)],
    )
    def test_lemma1_numeric_edge_points(self, alpha, mu, k, w):
        closed = lemma1_epsilon(ModelParams(alpha, 1.0, mu), k, w)
        assert abs(lemma1_numeric(alpha, mu, k, w) - closed) <= 1e-13


    @pytest.mark.parametrize(
        "alpha,mu,k", [(1.0, 1.0, 1), (10.0, 2.0, 20), (0.5, 0.5, 20), (10.0, 0.5, 5)]
    )
    def test_lemma1_numeric_small_window(self, alpha, mu, k):
        # f_Y cancelled at mu w = 1e-3, which cost the integral ~1e-14
        closed = lemma1_epsilon(ModelParams(alpha, 1.0, mu), k, 1e-3)
        assert abs(lemma1_numeric(alpha, mu, k, 1e-3) - closed) <= 1e-15


class TestOracleDomain:
    # every comparison with NaN is false, so a `w <= 0` check lets it through
    @pytest.mark.parametrize(
        "mu,w,y", [(1.0, math.nan, 0.5), (math.nan, 1.0, 0.5), (1.0, 1.0, math.nan), (np.array([1.0, math.nan]), 1.0, 0.5)]
    )
    def test_fy_density_rejects_nan(self, mu, w, y):
        with pytest.raises(DomainError):
            fy_density(mu, w, y)

    @pytest.mark.parametrize(
        "alpha,k,l", [(math.nan, 1, 1.0), (1.0, 1, math.nan), (1.0, math.nan, 1.0), (1.0, 1, np.array([0.5, -0.5]))]
    )
    def test_gamma_l_pdf_rejects_nan(self, alpha, k, l):
        with pytest.raises(DomainError):
            gamma_l_pdf(alpha, k, l)

    @pytest.mark.parametrize(
        "f,args",
        [
            (i1_numeric, (1.0, 0.0)),
            (i3_numeric, (1.0, math.nan, 1, 1.0)),
            (i4_numeric, (1.0, 1.0, 1, 0.0)),
            (i4_numeric, (1.0, 1.0, 1.5, 1.0)),
            (lemma1_numeric, (0.0, 1.0, 1, 1.0)),
            (lemma1_numeric, (1.0, 1.0, 0, 1.0)),
            (fy_normalization, (np.array([1.0, -1.0]), 1.0)),
        ],
    )
    def test_numerics_reject_bad_arguments(self, f, args):
        with pytest.raises(DomainError):
            f(*args)

    # the rule holds 1e-12 to k = 50 (WIDE_K); i3_numeric was 4e-12 off at k = 100 and 8e-5 at k = 1000
    @pytest.mark.parametrize("f", [i3_numeric, i4_numeric, lemma1_numeric])
    @pytest.mark.parametrize("k", [51, 100, 1000, np.array([50, 51])])
    def test_numerics_reject_shapes_past_the_rule(self, f, k):
        with pytest.raises(DomainError):
            f(1.0, 0.1, k, 1.0)


    # r = alpha/mu near or below the smallest normal float: 4^i in p_ek_quadrature's panel edges, t/r,
    # mu/alpha and (mu/alpha) t pass the float range; each value is the limit, with no RuntimeWarning
    # (which the suite turns into an error)
    @pytest.mark.parametrize("alpha,mu", [(1e-300, 1e10), (1e-300, 1e8), (1e-10, 1e300)])
    @pytest.mark.parametrize(
        "numeric,closed",
        [
            (lambda a, m: p_ek_quadrature(ModelParams(a, 1.0, m), 1), lambda a, m: p_ek_series(ModelParams(a, 1.0, m), 1)),
            (
                lambda a, m: p_ek_quadrature(ModelParams(a, 1.0, m), np.arange(1, 4)),
                lambda a, m: p_ek_series(ModelParams(a, 1.0, m), np.arange(1, 4)),
            ),
            (lambda a, m: i3_numeric(a, m, 2, 1.0), lambda a, m: i3_closed(a, m, 2, 1.0)),
            (lambda a, m: i4_numeric(a, m, 2, 1.0), lambda a, m: i4_closed(a, m, 2, 1.0)),
        ],
        ids=["p_ek_quadrature", "p_ek_quadrature-array", "i3", "i4"],
    )
    def test_extreme_rate_ratio_takes_the_limit_without_warning(self, numeric, closed, alpha, mu):
        assert numeric(alpha, mu) == pytest.approx(closed(alpha, mu), rel=1e-12, abs=0.0)

    # mu/alpha = 1e-310 is subnormal, with about 44 bits, so it must not scale the integral
    @pytest.mark.parametrize("alpha,mu", [(1e10, 1e-300), (1e300, 1e-10)])
    def test_subnormal_rate_ratio_keeps_full_precision(self, alpha, mu):
        assert i3_numeric(alpha, mu, 1, 1.0) == pytest.approx(i3_closed(alpha, mu, 1, 1.0), rel=1e-13, abs=0.0)
        assert i4_numeric(alpha, mu, 1, 1.0) == pytest.approx(i4_closed(alpha, mu, 1, 1.0), rel=1e-13, abs=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rate_scan_against_mpmath(self):
        # (q^k - 1)/(mu w) as 40-digit expm1(-k log1p(mu/alpha))/(mu w)
        rates = [1e-300, 1e-100, 1e-10, 1e-6, 1.0, 1e6, 1e10, 1e300]
        points = list(itertools.product(rates, rates, [1, 50], [1e-3, 1.0, 1e3]))
        alpha, mu, k, w = (np.array(col) for col in zip(*points))
        n3, n4 = i3_numeric(alpha, mu, k, w), i4_numeric(alpha, mu, k, w)
        with mpmath.workdps(40):
            for i, (a, m, kk, ww) in enumerate(points):
                m = mpmath.mpf(m)
                r3 = mpmath.expm1(-kk * mpmath.log1p(m / a)) / (m * ww)
                r4 = mpmath.exp(-m * ww) * r3
                assert abs(n3[i] - float(r3)) <= 1e-12 * abs(float(r3)), points[i]
                assert abs(n4[i] - float(r4)) <= 1e-12 * abs(float(r4)), points[i]

    def test_closed_forms_where_rate_ratio_underflows(self):
        # the 12 points of the scan above where mu/alpha underflows to 0, against 40-digit mpmath:
        # expm1(-k log1p(mu/alpha)) would give -0.0 there
        points = list(itertools.product([1e300], [1e-300, 1e-100], [1, 50], [1e-3, 1.0, 1e3]))
        assert all(m / a == 0.0 for a, m, _, _ in points)
        with mpmath.workdps(40):
            for a, m, k, w in points:
                r3 = mpmath.expm1(-k * mpmath.log1p(mpmath.mpf(m) / a)) / (mpmath.mpf(m) * w)
                r4 = mpmath.exp(-mpmath.mpf(m) * w) * r3
                assert i3_closed(a, m, k, w) == pytest.approx(float(r3), rel=1e-13, abs=0.0), (a, m, k, w)
                assert i4_closed(a, m, k, w) == pytest.approx(float(r4), rel=1e-13, abs=0.0), (a, m, k, w)


# 300 log-uniform (alpha, mu, k, w) points, far wider than the `validate` grid
_WIDE = np.random.default_rng(2026)
WIDE_ALPHA = 10.0 ** _WIDE.uniform(-2, 2, 300)
WIDE_MU = 10.0 ** _WIDE.uniform(-2, 2, 300)
WIDE_K = _WIDE.integers(1, 51, 300)
WIDE_W = 10.0 ** _WIDE.uniform(-3, 1.5, 300)
WIDE = list(zip(WIDE_ALPHA.tolist(), WIDE_MU.tolist(), WIDE_K.tolist(), WIDE_W.tolist()))


class TestAppendixRule:
    def test_default_grid_within_1e13(self):
        for name, numeric, closed, err in appendix_identity_checks():
            assert err <= 1e-13, f"{name}: numeric={numeric} closed={closed} err={err}"

    def test_gamma_mass_far_from_zero(self):
        # Gamma(50, 0.01) puts its mass near l = 5000, where quad on [0, inf) never looked
        assert i3_numeric(0.01, 0.01, 50, 0.5) == pytest.approx(-200.0, rel=1e-12, abs=0)
        assert i3_closed(0.01, 0.01, 50, 0.5) == pytest.approx(-200.0, rel=1e-15, abs=0)
        assert i4_numeric(0.01, 0.01, 50, 0.5) == pytest.approx(i4_closed(0.01, 0.01, 50, 0.5), rel=1e-12, abs=0)

    def test_closed_form_does_not_cancel(self):
        # (alpha/(alpha+mu))^k - 1 lost 6e-11 of its value to cancellation at mu/alpha = 1e-6
        assert i3_closed(1.0, 1e-6, 1, 1.0) == pytest.approx(-1.0 / (1.0 + 1e-6), rel=1e-15, abs=0)

    def test_wide_range(self):
        n3 = i3_numeric(WIDE_ALPHA, WIDE_MU, WIDE_K, WIDE_W)
        n4 = i4_numeric(WIDE_ALPHA, WIDE_MU, WIDE_K, WIDE_W)
        n1 = i1_numeric(WIDE_MU, WIDE_W)
        nl = lemma1_numeric(WIDE_ALPHA, WIDE_MU, WIDE_K, WIDE_W)
        nn = fy_normalization(WIDE_MU, WIDE_W)
        for i, (alpha, mu, k, w) in enumerate(WIDE):
            c3, c4 = i3_closed(alpha, mu, k, w), i4_closed(alpha, mu, k, w)
            assert abs(n3[i] - c3) <= 1e-12 * abs(c3), (alpha, mu, k, w)
            # below the smallest normal double (e^{-mu w} near e^{-740}) relative error means nothing
            assert abs(n4[i] - c4) <= 1e-12 * abs(c4) + np.finfo(float).tiny, (alpha, mu, k, w)
            assert abs(n1[i] - i1_closed(mu, w)) <= 1e-13, (mu, w)
            assert abs(nl[i] - lemma1_epsilon(ModelParams(alpha, 1.0, mu), k, w)) <= 1e-13, (alpha, mu, k, w)
            assert abs(nn[i] - 1.0) <= 1e-13, (mu, w)

    @pytest.mark.parametrize(
        "f,cols",
        [(i1_numeric, (1, 3)), (i3_numeric, (0, 1, 2, 3)), (i4_numeric, (0, 1, 2, 3)),
         (lemma1_numeric, (0, 1, 2, 3)), (fy_normalization, (1, 3))],
    )
    def test_array_call_is_elementwise(self, f, cols):
        points = WIDE[:60]
        args = [np.array([p[c] for p in points]).reshape(6, 10) for c in cols]
        got = f(*args)
        assert got.shape == (6, 10)
        scalar = [f(*(p[c] for c in cols)) for p in points]
        assert all(type(v) is float for v in scalar)
        assert got.ravel().tolist() == scalar

    def test_density_array_call_is_elementwise(self):
        # y on both sides of zero and below -w
        mu, w, alpha, k = WIDE_MU[:60], WIDE_W[:60], WIDE_ALPHA[:60], WIDE_K[:60]
        y = w * np.tile([-2.0, -1.0, -0.5, 0.0, 0.5, 3.0], 10)
        assert fy_density(mu, w, y).tolist() == [fy_density(*p) for p in zip(mu.tolist(), w.tolist(), y.tolist())]
        l = np.abs(y)
        assert gamma_l_pdf(alpha, k, l).tolist() == [gamma_l_pdf(*p) for p in zip(alpha.tolist(), k.tolist(), l.tolist())]

    @pytest.mark.parametrize("k", [1, 2, 5, 50, 1000, 10**6])
    def test_gamma_end_drops_below_1e17(self, k):
        end = float(validation._gamma_end(k))
        assert end == 2.0 ** round(math.log2(end))
        assert gammaincc(k, end) < 1e-17
