import math
import tracemalloc

import pytest

from rcumem.core import ConvergenceError, DomainError, ModelParams
from rcumem.analytics import lemma1_epsilon, p_ek_series
from rcumem.validation import (
    appendix_identity_checks,
    en_joint_quadrature,
    fy_density,
    fy_normalization,
    gamma_l_pdf,
    i1_closed,
    i1_numeric,
    lemma1_cells,
    lemma1_numeric,
    mc_lemma1,
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
        est = mc_lemma1(p, 1, 1e-3, 1_000_000, seed=2)
        assert est.estimate == pytest.approx(0.5, abs=3.5 * est.std_error + 1e-3)

    def test_unit_point_k2(self):
        p = ModelParams(1, 1, 1)
        est = mc_lemma1(p, 2, 1.0, 1_000_000, seed=3)
        assert abs(est.estimate - 0.8419698602928606) <= 3.5 * est.std_error

    def test_fast_writer(self):
        p = ModelParams(3, 1, 1)
        target = lemma1_epsilon(p, 1, 2.0)
        est = mc_lemma1(p, 1, 2.0, 1_000_000, seed=4)
        assert abs(est.estimate - target) <= 3.5 * est.std_error

    def test_std_error_bound(self):
        est = mc_lemma1(ModelParams(1, 1, 1), 1, 1.0, 40_000, seed=5)
        assert est.std_error <= 0.5 / math.sqrt(est.samples)

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            mc_lemma1(ModelParams(1, 1, 1), 1, 1.0, 100, seed=1)

    def test_nan_window_rejected(self):
        # every comparison with NaN is false, so a `w <= 0` check lets it through
        with pytest.raises(DomainError):
            mc_lemma1(ModelParams(1, 1, 1), 1, math.nan, 10_000, 1)

    def test_std_error_near_certainty(self):
        # 1 - p is 3.2e-5, so 2e5 samples expect 6.4 misses; this seed draws 1.
        # The plug-in se sqrt(p(1-p)/n) shrinks with the misses and put it 5.4 se out.
        p = ModelParams(0.5, 1.0, 2.0)
        est = mc_lemma1(p, 5, 5.0, 200_000, seed=8)
        assert round((1.0 - est.estimate) * est.samples) == 1
        assert abs(est.estimate - lemma1_epsilon(p, 5, 5.0)) <= 5.0 * est.std_error


# hits of the 81 `rcumem validate` Lemma 1 cells (w, alpha, mu in that loop
# order) at 20,000 samples and seed 1, each drawn separately by mc_lemma1
# before the draws were shared
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

    def test_mc_lemma1_is_one_cell(self):
        p, w = ModelParams(2.0, 1.0, 0.5), 1.0
        assert mc_lemma1(p, 2, w, 20_000, seed=1) == lemma1_cells(2, [(p, w)], 20_000, seed=1)[0]

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

    def test_memory_is_per_reader_draws_only(self):
        # about 1e6 readers per 1e5-sample chunk at lambda = 10: the uniforms
        # and the exponentials are 7.6 MiB each
        tracemalloc.start()
        try:
            mc_p_ek(ModelParams(1, 10, 1), 1, 200_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20

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

    def test_lemma1_numeric_matches_closed_to_1e13(self):
        checks = [c for c in appendix_identity_checks() if c[0].startswith("Lemma1")]
        assert len(checks) == 81
        for name, numeric, closed, err in checks:
            assert err <= 1e-13, f"{name}: numeric={numeric} closed={closed} err={err}"

    @pytest.mark.parametrize(
        "alpha,mu,k,w",
        [(1.0, 1.0, 1, 1e-3), (0.5, 0.5, 20, 1e-3), (1.0, 1.0, 20, 1.0), (10.0, 1.0, 1, 1.0), (10.0, 2.0, 20, 1e-3)],
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


class TestEnJointQuadrature:
    def test_running_out_of_terms_is_convergence_error(self):
        with pytest.raises(ConvergenceError):
            en_joint_quadrature(ModelParams(1, 10, 1), max_k=1)
