import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcumem.core import (
    DomainError,
    ModelParams,
    RandomSource,
    _POISSON_MAX,
    _legendre_panels,
    b_k,
    validate,
)

rates = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestValidate:
    def test_symmetric_point(self):
        dp = validate(ModelParams(1, 1, 1))
        assert dp.q == 0.5
        assert dp.rho == 1.0

    def test_fast_writer(self):
        dp = validate(ModelParams(3, 10, 1))
        assert dp.q == 0.75
        assert dp.rho == 10.0

    def test_zero_alpha_rejected(self):
        with pytest.raises(DomainError):
            validate(ModelParams(0, 1, 1))

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(-1, 1, 1),
            ModelParams(1, -1, 1),
            ModelParams(1, 1, 0),
            ModelParams(math.inf, 1, 1),
            ModelParams(1, math.nan, 1),
        ],
    )
    def test_invalid_rejected(self, params):
        with pytest.raises(DomainError):
            validate(params)

    @given(alpha=rates, lam=rates, mu=rates)
    def test_pure_and_in_range(self, alpha, lam, mu):
        p = ModelParams(alpha, lam, mu)
        dp1, dp2 = validate(p), validate(p)
        assert dp1 == dp2
        assert 0 < dp1.q < 1
        assert dp1.rho >= 0


class TestBk:
    def test_symmetric(self):
        assert b_k(ModelParams(1, 1, 1), 1) == pytest.approx(0.5)

    def test_zero_read_load(self):
        assert b_k(ModelParams(2, 0, 3), 3) == 0.0

    def test_k2(self):
        assert b_k(ModelParams(1, 2, 1), 2) == pytest.approx(0.5)

    def test_k_below_one_rejected(self):
        with pytest.raises(DomainError):
            b_k(ModelParams(1, 1, 1), 0)

    def test_array_k(self):
        p = ModelParams(2, 3, 1)
        ks = np.arange(1, 11)
        got = b_k(p, ks)
        assert got.shape == ks.shape
        assert got[0] == b_k(p, 1)
        assert got.tolist() == pytest.approx([b_k(p, k) for k in range(1, 11)], rel=1e-15, abs=0.0)
        for bad in (np.array([3, 0]), math.nan):
            with pytest.raises(DomainError):
                b_k(p, bad)

    @given(alpha=rates, lam=rates, mu=rates, k=st.integers(min_value=1, max_value=50))
    @settings(max_examples=50)
    def test_geometric_recursion(self, alpha, lam, mu, k):
        p = ModelParams(alpha, lam, mu)
        q = validate(p).q
        assert b_k(p, k + 1) == pytest.approx(q * b_k(p, k), rel=1e-12)


class TestRandomSource:
    def test_reproducible_uniform_stream(self):
        a = RandomSource(12345, "x").uniform(1_000_000)
        b = RandomSource(12345, "x").uniform(1_000_000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RandomSource(1, "writes").uniform(100)
        b = RandomSource(1, "arrivals").uniform(100)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = RandomSource(1, "x").uniform(100)
        b = RandomSource(2, "x").uniform(100)
        assert not np.array_equal(a, b)

    def test_exponential_moments(self):
        x = RandomSource(7, "e").exponential(2.0, 400_000)
        assert x.mean() == pytest.approx(0.5, rel=0.01)
        assert x.var() == pytest.approx(0.25, rel=0.03)

    def test_poisson_small_mean(self):
        x = RandomSource(7, "p").poisson(3.0, 400_000)
        assert x.mean() == pytest.approx(3.0, rel=0.01)
        assert x.var() == pytest.approx(3.0, rel=0.03)

    def test_poisson_large_mean_chunked(self):
        x = RandomSource(7, "p").poisson(250.0, 100_000)
        assert x.mean() == pytest.approx(250.0, rel=0.005)
        assert x.var() == pytest.approx(250.0, rel=0.05)

    def test_poisson_array_means(self):
        means = np.array([0.0, 0.5, 40.0, 100.0])
        rs = RandomSource(3, "p")
        draws = np.array([rs.poisson(means) for _ in range(20_000)], dtype=float)
        assert np.all(draws[:, 0] == 0)
        assert draws.mean(axis=0) == pytest.approx(means, rel=0.03, abs=0.02)

    def test_gamma_int_moments(self):
        x = RandomSource(7, "g").gamma_int(3, 2.0, 400_000)
        assert x.mean() == pytest.approx(1.5, rel=0.01)
        assert x.var() == pytest.approx(0.75, rel=0.03)

    def test_exponential_is_inverse_transform_of_uniforms(self):
        n = 100_000
        u = RandomSource(7, "e").uniform(n)
        assert np.array_equal(RandomSource(7, "e").exponential(2.0, n), -np.log1p(-u) / 2.0)
        scalar = RandomSource(7, "e").exponential(2.0)
        assert type(scalar) is np.float64
        assert scalar == -np.log1p(-RandomSource(7, "e").uniform()) / 2.0

    def test_gamma_int_is_sum_of_inverse_transforms(self):
        n = 100_000
        u = RandomSource(7, "g").uniform((n, 3))
        assert np.array_equal(RandomSource(7, "g").gamma_int(3, 2.0, n), -np.log1p(-u).sum(axis=1) / 2.0)
        scalar = RandomSource(7, "g").gamma_int(3, 2.0)
        assert type(scalar) is float
        assert scalar == -np.log1p(-RandomSource(7, "g").uniform((1, 3))).sum() / 2.0

    @pytest.mark.parametrize("shape", [1, 2, 5, 7, 8, 12])
    def test_gamma_int_sum_on_both_sides_of_8_terms(self, shape):
        # column adds below 8 terms, numpy's row sum from 8: the same bits as the row sum throughout
        n = 50_000
        u = RandomSource(7, "g").uniform((n, shape))
        assert np.array_equal(RandomSource(7, "g").gamma_int(shape, 2.0, n), -np.log1p(-u).sum(axis=1) / 2.0)

    def test_exponential_needs_no_temporaries(self):
        # 1e6 doubles are 7.6 MiB; the uniforms are transformed in place
        tracemalloc.start()
        try:
            RandomSource(7, "e").exponential(2.0, 1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20

    @pytest.mark.parametrize(
        "draw,per_variate",
        [
            (lambda rs, n: rs.uniform(n), 1),
            (lambda rs, n: rs.exponential(2.0, n), 1),
            (lambda rs, n: rs.gamma_int(1, 2.0, n), 1),
            (lambda rs, n: rs.gamma_int(5, 0.5, n), 5),
        ],
        ids=["uniform", "exponential", "gamma_int-1", "gamma_int-5"],
    )
    def test_split_blocks_equal_one_shot_draws(self, draw, per_variate):
        sizes = (0, 1, 999, 4096, 17, 30_000)
        whole = draw(RandomSource(7, "s"), 3 * sum(sizes))
        parts = RandomSource(7, "s").split(*(per_variate * sum(sizes),) * 3)
        got = [draw(part, n) for part in parts for n in sizes]
        assert np.array_equal(np.concatenate(got), whole)

    def test_split_moves_self_past_the_segments(self):
        one_shot = RandomSource(11, "s")
        one_shot.uniform(10)
        one_shot.gamma_int(3, 1.0, 20)
        expected = one_shot.exponential(1.0, 50)
        rs = RandomSource(11, "s")
        rs.split(10, 0, 60)
        assert np.array_equal(rs.exponential(1.0, 50), expected)

    def test_split_zero_count(self):
        rs = RandomSource(3, "s")
        empty, first = rs.split(0, 5)
        assert empty.uniform(0).size == 0
        # an empty segment starts where the next one does
        assert np.array_equal(empty.uniform(5), first.uniform(5))
        assert np.array_equal(rs.uniform(5), RandomSource(3, "s").uniform(10)[5:])

    @pytest.mark.parametrize("counts", [(-1,), (4, -2), (2.5,)])
    def test_split_rejects_bad_counts(self, counts):
        rs = RandomSource(3, "s")
        with pytest.raises(DomainError):
            rs.split(*counts)
        # nothing was consumed
        assert np.array_equal(rs.uniform(5), RandomSource(3, "s").uniform(5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda rs, x: rs.exponential(x, 3),
            lambda rs, x: rs.exponential(x),
            lambda rs, x: rs.gamma_int(2, x, 2),
            lambda rs, x: rs.gamma_int(x, 1.0),
            lambda rs, x: rs.gamma_int(x, 1.0, 4),
            lambda rs, x: rs.split(x),
            lambda rs, x: rs.split(3, x),
        ],
    )
    def test_non_finite_args_are_domain_errors(self, call, bad):
        rs = RandomSource(3, "s")
        with pytest.raises(DomainError):
            call(rs, bad)
        # nothing was consumed
        assert np.array_equal(rs.uniform(5), RandomSource(3, "s").uniform(5))

    # numpy takes Poisson means up to about 9.2e18 and raised a bare ValueError past that
    @pytest.mark.parametrize(
        "mean", [math.nan, math.inf, -1.0, 1e19, [1.0, 1e19], np.nextafter(_POISSON_MAX, math.inf)]
    )
    def test_poisson_mean_off_the_range_is_a_domain_error(self, mean):
        rs = RandomSource(3, "s")
        with pytest.raises(DomainError):
            rs.poisson(mean)
        # nothing was consumed
        assert np.array_equal(rs.uniform(5), RandomSource(3, "s").uniform(5))

    def test_poisson_takes_the_largest_mean(self):
        assert RandomSource(3, "s").poisson(_POISSON_MAX) > 0

    def test_invalid_args(self):
        rs = RandomSource(1)
        with pytest.raises(DomainError):
            rs.exponential(0.0)
        with pytest.raises(DomainError):
            rs.gamma_int(0, 1.0)
        with pytest.raises(DomainError):
            rs.poisson(-1.0)


def _quartic_edges(c: float) -> np.ndarray:
    """p_ek_quadrature's panel edges: 0, then c * 4^i below 40, then 40."""
    top = np.ldexp(c, 2 * np.arange(math.ceil((math.log(40.0) - math.log(c)) / math.log(4.0))))
    return np.concatenate(([0.0], top[top < 40.0], [40.0]))


def _dyadic_edges(panels: int) -> np.ndarray:
    """validation._dyadic_legendre's panel edges: 0, then 2^(1-panels), ..., 1/2, 1."""
    return np.concatenate(([0.0], np.exp2(np.arange(1.0 - panels, 1.0))))


class TestLegendrePanels:
    EDGES = {
        "quartic c=1": _quartic_edges(1.0),
        "quartic c=1e-3": _quartic_edges(1e-3),
        "quartic c=3e-9": _quartic_edges(3e-9),
        "dyadic 41": _dyadic_edges(41),
        "dyadic 61": _dyadic_edges(61),
    }

    @pytest.mark.parametrize("n", [2, 16, 32])
    @pytest.mark.parametrize("name", list(EDGES))
    def test_exact_for_degree_2n_minus_1(self, name, n):
        edges = self.EDGES[name]
        t, w = _legendre_panels(edges, n)
        assert t.shape == w.shape == (len(edges) - 1, n)
        assert float(w.sum()) == pytest.approx(edges[-1] - edges[0], rel=1e-14, abs=0.0)
        # q(u) = sum_j c_j u^j, c_j > 0, of degree 2n - 1, has int_0^1 q = sum_j c_j/(j + 1);
        # positive terms at u >= 0 keep the sums free of cancellation
        c = RandomSource(n, name).uniform(2 * n) + 0.5
        unit = math.fsum(c / np.arange(1.0, 2 * n + 1.0))
        # each panel alone, in its own u = (t - a)/(b - a)
        a, width = edges[:-1, None], np.diff(edges)[:, None]
        per_panel = (w * np.polynomial.polynomial.polyval((t - a) / width, c)).sum(axis=1)
        np.testing.assert_allclose(per_panel, width[:, 0] * unit, rtol=1e-14, atol=0.0)
        # the whole span, in u = t / span
        span = edges[-1]
        whole = float((w * np.polynomial.polynomial.polyval(t / span, c)).sum())
        assert whole == pytest.approx(span * unit, rel=1e-14, abs=0.0)
