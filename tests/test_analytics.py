import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcumem import analytics
from rcumem.core import ConvergenceError, DomainError, ModelParams
from rcumem.analytics import (
    a_w,
    avg_age,
    en_bound_jensen,
    en_bound_simple,
    en_exact,
    lemma1_epsilon,
    p_ek_given_w,
    p_ek_quadrature,
    p_ek_series,
)

rates = st.floats(min_value=0.05, max_value=50, allow_nan=False, allow_infinity=False)


class TestAw:
    def test_limit_at_zero(self):
        assert a_w(1.0, 0.0) == 1.0

    def test_large_w_vanishes(self):
        # (1 - e^-50)/50 rounds to exactly 1/50 in doubles
        assert a_w(1.0, 50.0) <= 0.02
        assert a_w(1.0, 60.0) < 0.02

    def test_unit_point(self):
        # (1 - e^-1) / 1
        assert a_w(1.0, 1.0) == pytest.approx(0.6321205588285577, abs=1e-12)

    def test_negative_w_rejected(self):
        with pytest.raises(DomainError):
            a_w(1.0, -0.1)

    def test_monotone_decreasing(self):
        vals = [a_w(1.0, w) for w in (0.0, 0.1, 0.5, 1.0, 5.0, 20.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestLemma1Epsilon:
    def test_small_w_limit_k1(self):
        p = ModelParams(1, 1, 1)
        assert lemma1_epsilon(p, 1, 1e-12) == pytest.approx(0.5, abs=1e-9)

    def test_small_w_limit_k3(self):
        p = ModelParams(1, 1, 1)
        assert lemma1_epsilon(p, 3, 1e-12) == pytest.approx(0.875, abs=1e-9)

    def test_unit_point_k2(self):
        # 1 - (1 - e^-1) * 0.25
        p = ModelParams(1, 1, 1)
        assert lemma1_epsilon(p, 2, 1.0) == pytest.approx(0.8419698602928606, abs=1e-12)

    def test_domain_errors(self):
        p = ModelParams(1, 1, 1)
        with pytest.raises(DomainError):
            lemma1_epsilon(p, 0, 1.0)
        with pytest.raises(DomainError):
            lemma1_epsilon(p, 1, 0.0)

    @given(alpha=rates, mu=rates, k=st.integers(1, 10), w=st.floats(0.01, 20))
    @settings(max_examples=60)
    def test_in_unit_interval_and_monotone_in_k(self, alpha, mu, k, w):
        p = ModelParams(alpha, 1.0, mu)
        e1 = lemma1_epsilon(p, k, w)
        e2 = lemma1_epsilon(p, k + 1, w)
        # a_w q^k can round to 0, putting epsilon at exactly 1.0
        assert 0 < e1 <= 1
        assert e2 >= e1


class TestPEkGivenW:
    def test_no_readers(self):
        assert p_ek_given_w(ModelParams(2, 0, 1), 3, 5.0) == 1.0

    def test_w_zero(self):
        assert p_ek_given_w(ModelParams(1, 10, 1), 1, 0.0) == 1.0

    def test_large_w_limit(self):
        # e^{-b_1} with b_1 = 0.5
        p = ModelParams(1, 1, 1)
        assert p_ek_given_w(p, 1, 1e6) == pytest.approx(math.exp(-0.5), abs=1e-9)

    def test_lower_bound(self):
        p = ModelParams(1, 5, 1)
        b1 = 5 * 0.5
        for w in (0.1, 1.0, 10.0, 100.0):
            assert math.exp(-b1) <= p_ek_given_w(p, 1, w) <= 1.0


class TestNanArguments:
    # every comparison with NaN is false, so a `w < 0` check lets it through
    @pytest.mark.parametrize(
        "f,args",
        [
            (lemma1_epsilon, (ModelParams(1, 1, 1), math.nan, 1.0)),
            (lemma1_epsilon, (ModelParams(1, 1, 1), 1, math.nan)),
            (p_ek_given_w, (ModelParams(1, 1, 1), 1, math.nan)),
            (a_w, (math.nan, 1.0)),
            (a_w, (1.0, math.nan)),
        ],
    )
    def test_nan_is_domain_error(self, f, args):
        with pytest.raises(DomainError):
            f(*args)


class TestPEkSeries:
    def test_no_readers(self):
        assert p_ek_series(ModelParams(1, 0, 1), 1) == 1.0

    # lam/mu overflows, so b_k is infinite; _kummer_m would take inf * 0 and warn first
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [1, np.arange(1, 4)], ids=["scalar", "array"])
    def test_infinite_b_is_convergence_error(self, k):
        with pytest.raises(ConvergenceError):
            p_ek_series(ModelParams(1.0, 1e300, 1e-10), k)

    def test_matches_quadrature_unit(self):
        p = ModelParams(1, 1, 1)
        s = p_ek_series(p, 1)
        q = p_ek_quadrature(p, 1)
        assert 0 < s < 1
        assert s == pytest.approx(q, abs=1e-8)

    @pytest.mark.parametrize(
        "r,b",
        [
            (16.748706233275186, 2896938455708.6064),
            (44.0, 8.1e10),
            (10.0, 1e-300),
            (44.0, 1e-100),
            # r and b_1 at (15483.244758729303, 83819.42618882096, 3.398482605123476e-06)
            (4555928794.629436, 24663779665.683384),
            (1.8263921542659193e-12, 643.1727650444847),
        ],
    )
    def test_where_hyp1f1_fails_matches_mpmath(self, r, b):
        # scipy's hyp1f1(1, 1 + r, -b) returns NaN at the first three b_1, is
        # 30 ulp off at the fourth, 3.2e-6 off at the fifth and 4.1e-5 at the sixth
        p = p_ek_series(ModelParams(r, b / (r / (r + 1.0)), 1.0), 1)
        with mpmath.workdps(40):
            want = mpmath.hyp1f1(1, 1 + mpmath.mpf(r), -mpmath.mpf(b))
        assert p == pytest.approx(float(want), rel=1e-15, abs=0.0)

    def test_non_finite_kummer_m_is_convergence_error(self, monkeypatch):
        monkeypatch.setattr(analytics, "_kummer_m", lambda r, b: math.nan * np.asarray(b))
        with pytest.raises(ConvergenceError):
            p_ek_series(ModelParams(1, 700, 1), 1)
        with pytest.raises(ConvergenceError):
            en_exact(ModelParams(1, 700, 1))

    @pytest.mark.parametrize("b", [1e-9, 0.3, 5.0, 40.0, 700.0, 5e5])
    def test_r_one_closed_form(self, b):
        # at r = 1, M(1, 2, -b) = (1 - e^-b)/b, and b_1 = lam/2 at (1, lam, 1)
        assert p_ek_series(ModelParams(1, 2 * b, 1), 1) == pytest.approx(-math.expm1(-b) / b, rel=1e-15, abs=0.0)

    def test_large_k_tends_to_one(self):
        p = ModelParams(1, 1, 1)
        v = p_ek_series(p, 40)
        assert v >= 1 - 1e-6
        # complement bounded by b_k itself
        assert 1 - v <= 2.0**-40 + 1e-12


def _mp_kummer(r, b):
    """M(1, r + 1, -b) at 30 digits: mpmath's hyp1f1, or its integral where the series stalls."""
    with mpmath.workdps(30):
        r, b = mpmath.mpf(r), mpmath.mpf(b)
        try:
            return float(mpmath.hyp1f1(1, 1 + r, -b))
        except mpmath.libmp.NoConvergence:  # r and b both large and close
            # int_0^inf exp(b expm1(-t/r) - t) dt, split where its scales 1, r and r/b fall
            c = min(1, r / max(1, b))
            points = [0] + [c * 10**i for i in range(math.ceil(math.log10(60 / c)) + 1)] + [mpmath.inf]
            return float(mpmath.quad(lambda t: mpmath.exp(b * mpmath.expm1(-t / r) - t), points))


class TestKummerM:
    @given(
        r=st.floats(-12, 10).map(lambda e: 10.0**e),
        b=st.one_of(st.just(0.0), st.floats(-10, 13).map(lambda e: 10.0**e)),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_mpmath(self, r, b):
        assert float(analytics._kummer_m(r, b)) == pytest.approx(_mp_kummer(r, b), rel=1e-13, abs=0.0)

    def test_vectorised_over_b(self):
        b = np.array([[0.0, 1e-3, 3.0], [149.0, 151.0, 1e8]])
        for r in (0.5, 10.0):
            m = analytics._kummer_m(r, b)
            assert m.shape == b.shape
            for got, x in zip(m.ravel(), b.ravel()):
                assert got == pytest.approx(float(analytics._kummer_m(r, x)), rel=1e-15, abs=0.0)
        assert analytics._kummer_m(0.5, np.empty(0)).shape == (0,)


class TestPEkQuadrature:
    def test_no_readers(self):
        assert p_ek_quadrature(ModelParams(1, 0, 1), 2) == pytest.approx(1.0, abs=1e-10)

    def test_slow_writer_endpoint_substitution(self):
        # alpha/mu < 1, where the integral over y = e^{-mu w} has an endpoint singularity
        p = ModelParams(0.5, 10, 1)
        assert p_ek_quadrature(p, 1) == pytest.approx(p_ek_series(p, 1), abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0, 10.0, 100.0])
    @pytest.mark.parametrize("lam", [0.5, 5.0, 10.0])
    def test_equivalence_grid(self, alpha, lam):
        p = ModelParams(alpha, lam, 1.0)
        for k in range(1, 21):
            assert p_ek_series(p, k) == pytest.approx(p_ek_quadrature(p, k), abs=1e-8)

    @pytest.mark.parametrize(
        "alpha,lam,mu,k",
        [
            (0.1, 200.0, 0.1, 1),  # b_1 = 1000
            (124.43168711678409, 289.5158479061569, 0.0018434973840837088, 10),  # r ~ 6.7e4, b ~ 1.6e5
            (566.7169603769514, 0.001232072390974023, 0.009297951648062361, 10),  # r ~ 6.1e4
            (2e5, 1e-3, 2.5e5, 1),  # all the mass within w < 1e-4
            (0.045256658780940914, 626.0725395354682, 0.0022346814893483696, 1),  # drop at w ~ 1/(b mu) = 0.0017
        ],
    )
    def test_hard_points_match_series(self, alpha, lam, mu, k):
        p = ModelParams(alpha, lam, mu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = p_ek_quadrature(p, k)
        assert q == pytest.approx(p_ek_series(p, k), abs=1e-8)

    def test_large_error_estimate_is_convergence_error(self, monkeypatch):
        # a 2-node check rule misses e^{-t} on [0, 1] by ~1e-4, so |G32 - G2| is far above 1e-9
        monkeypatch.setattr(analytics, "_GL16", np.polynomial.legendre.leggauss(2))
        with pytest.raises(ConvergenceError, match="error estimate"):
            p_ek_quadrature(ModelParams(1, 1, 1), 1)
        with pytest.raises(ConvergenceError, match="error estimate"):
            p_ek_quadrature(ModelParams(1, 1, 1), np.arange(1, 4))

    def test_infinite_b_is_convergence_error(self):
        # lam/mu overflows, so b_k is infinite and the scale r/b_k is 0
        with pytest.raises(ConvergenceError):
            p_ek_quadrature(ModelParams(1.0, 1e300, 1e-10), 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_b_array_k_is_convergence_error(self):
        # b_k's array overflow in lam q^k / mu warned before the typed error
        with pytest.raises(ConvergenceError):
            p_ek_quadrature(ModelParams(1.0, 1e300, 1e-10), np.arange(1, 4))


class TestArrayK:
    @pytest.mark.parametrize("alpha,lam,mu", [(0.5, 10.0, 1.0), (1.0, 1.0, 1.0), (100.0, 5.0, 1.0), (0.1, 200.0, 0.1)])
    @pytest.mark.parametrize("f", [p_ek_series, p_ek_quadrature])
    def test_array_call_equals_scalar_calls(self, f, alpha, lam, mu):
        # the array call sizes its series or panels by the largest b_k, so entries may move by an ulp or two
        p = ModelParams(alpha, lam, mu)
        ks = np.arange(1, 21)
        got = f(p, ks)
        assert got.shape == ks.shape
        for k, v in zip(ks.tolist(), got.tolist()):
            scalar = f(p, k)
            assert isinstance(scalar, float)
            assert v == pytest.approx(scalar, rel=0.0, abs=1e-15)

    def test_array_shape_is_k_shape(self):
        p = ModelParams(2.0, 5.0, 1.0)
        ks = np.array([[1, 2], [5, 20]])
        for f in (p_ek_series, p_ek_quadrature):
            assert f(p, ks).shape == (2, 2)
            assert f(p, np.arange(1, 1)).shape == (0,)

    @given(
        alpha=st.floats(-6, 6).map(lambda e: 10.0**e),
        lam=st.floats(-6, 6).map(lambda e: 10.0**e),
        mu=st.floats(-6, 6).map(lambda e: 10.0**e),
        k=st.integers(1, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_quadrature_matches_series_log_uniform(self, alpha, lam, mu, k):
        p = ModelParams(alpha, lam, mu)
        assert p_ek_quadrature(p, k) == pytest.approx(p_ek_series(p, k), rel=0.0, abs=1e-12)


class TestFootprint:
    def test_no_readers_exact_one(self):
        rep = en_exact(ModelParams(1, 0, 1))
        assert rep.en_exact == 1.0
        assert rep.en_bound_jensen == 1.0
        assert rep.en_bound_simple == 1.0

    def test_fast_writer_approaches_simple_bound(self):
        rep = en_exact(ModelParams(1000, 10, 1))
        assert 10.5 < rep.en_exact < 11.0

    def test_truncation_bound_negligible(self):
        # each power-series term is at most half the one before, so 64 of them leave < 2^-63 of the tail
        for p, head in [(ModelParams(1, 1, 1), 0), (ModelParams(10, 5, 2), 0), (ModelParams(0.3, 8, 1), 1)]:
            rep = en_exact(p)
            assert 0.0 <= rep.truncation_bound <= 2.0**-63 * rep.en_exact
            assert rep.terms_used_k == head

    @pytest.mark.parametrize(
        "alpha,lam,mu,msg",
        [(10000, 1e13, 1, "more than 200000 terms"), (1e300, 1, 1e-10, "alpha/mu overflows")],
        ids=["head-cap", "q-rounds-to-1"],
    )
    def test_typed_error_where_the_sum_stops(self, alpha, lam, mu, msg):
        # a head of 214,173 terms; alpha/mu = 1e310
        for f in (en_exact, en_bound_jensen):
            with pytest.raises(ConvergenceError, match=msg):
                f(ModelParams(alpha, lam, mu))

    def test_long_head_memory_is_bounded(self):
        # 189,999 head terms at r = 300: whole, _kummer_m's (head, 40) arrays peaked at 242 MiB
        tracemalloc.start()
        try:
            rep = en_exact(ModelParams(300, 5.93e276, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20
        assert rep.terms_used_k == 189_999
        assert rep.en_exact == pytest.approx(189792.53738068024, rel=1e-15, abs=0)

    def test_jensen_unit_point_direct_summation(self):
        # independent oracle: partial sums of q^k/(q^k + 1) with q = 1/2
        q, s, k = 0.5, 1.0, 0
        while True:
            k += 1
            t = q**k / (q**k + 1.0)
            s += t
            if t < 1e-14:
                break
        assert en_bound_jensen(ModelParams(1, 1, 1)) == pytest.approx(s, abs=1e-9)

    def test_simple_bound_values(self):
        assert en_bound_simple(ModelParams(1, 10, 1)) == 11.0
        assert en_bound_simple(ModelParams(1, 0, 1)) == 1.0
        assert en_bound_simple(ModelParams(1, 5, 2)) == 3.5

    @given(alpha=rates, lam=st.floats(0, 30), mu=rates)
    @settings(max_examples=40, deadline=None)
    def test_bound_chain(self, alpha, lam, mu):
        p = ModelParams(alpha, lam, mu)
        rep = en_exact(p)
        assert 1.0 <= rep.en_exact + 1e-9
        assert rep.en_exact <= rep.en_bound_jensen + 1e-9
        assert rep.en_bound_jensen <= rep.en_bound_simple + 1e-9

    def test_monotone_in_lambda(self):
        vals = [en_exact(ModelParams(2, lam, 1)).en_exact for lam in range(0, 21, 2)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_alpha(self):
        vals = [en_exact(ModelParams(a, 5, 1)).en_exact for a in (0.1, 0.3, 1, 3, 10, 30, 100)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 6.0


# (alpha, lam, loop_exact, loop_terms, en_bound_jensen, terms_used_k) at mu = 1.
# loop_exact came from a per-reader-count loop over k <= loop_terms, the first
# k with (lam/mu) q^k < 1e-10, that dropped up to 1e-10 of Poisson tail in
# each term, so it is only good to (loop_terms + 1) * 1e-10. en_bound_jensen
# is _mp_jensen below, and terms_used_k the head summed term by term.
GOLDEN = [
    (0.5, 1, 1.3027308604568435, 21, 1.6871501300877987, 0),
    (0.5, 5, 2.098827100312841, 23, 2.73559971873629, 1),
    (0.5, 10, 2.6411348254924722, 24, 3.2991441282417924, 2),
    (1, 1, 1.449883108025035, 34, 1.7644997803484441, 0),
    (1, 5, 2.6106272722516444, 36, 3.17630701707065, 2),
    (1, 10, 3.411974861622082, 37, 4.009640350403984, 3),
    (2, 1, 1.6063895124282987, 57, 1.8408488250340014, 0),
    (2, 5, 3.2500550014361367, 61, 3.7394506863094645, 2),
    (2, 10, 4.467008296670195, 63, 5.0070466127502735, 4),
    (100, 1, 1.985300608817079, 2315, 1.9950576334962253, 0),
    (100, 5, 5.833516363954689, 2476, 5.879599123897845, 0),
    (100, 10, 10.447089005318018, 2546, 10.533208022751015, 0),
    (1000, 1, 1.9985030741396455, 23038, 1.9995005826258587, 0),
    (1000, 5, 5.9825898558323285, 24648, 5.98754771650967, 0),
    (1000, 10, 10.940513108445348, 25342, 10.950355511270436, 0),
    (3000, 1, 1.9995003410327854, 69090, 1.9998333981219243, 0),
    (3000, 5, 5.9941766896595325, 73919, 5.995838649972375, 0),
    (3000, 10, 10.980057394108835, 75998, 10.983373043042082, 0),
]


# en_exact at the GOLDEN points: the Poisson series summed over every k,
# 1 + sum_{k>=1} sum_j pois(j; b_k) j/(r + j) with exact q = alpha/(alpha + mu),
# by _mp_series below at 30 digits and rounded to doubles
MP_REFERENCE = {
    (0.5, 1): 1.3027308606354566,
    (0.5, 5): 2.0988271007328936,
    (0.5, 10): 2.6411348257667577,
    (1, 1): 1.4498831082978145,
    (1, 5): 2.6106272726809285,
    (1, 10): 3.4119748620807457,
    (2, 1): 1.6063895129034498,
    (2, 5): 3.250055002095285,
    (2, 10): 4.467008297305215,
    (100, 1): 1.985300609999619,
    (100, 5): 5.833516366218035,
    (100, 10): 10.447089008449355,
    (1000, 1): 1.9985030753992334,
    (1000, 5): 5.982589858332364,
    (1000, 10): 10.940513112042627,
    (3000, 1): 1.9995003422981394,
    (3000, 5): 5.994176692186458,
    (3000, 10): 10.980057397747345,
}


def _mp_series(alpha, lam, mu, dps=30):
    """1 + sum_{k>=1} sum_j pois(j; b_k) j/(r + j) in mpmath, each j-sum to dps digits.

    Each k-term is at most b_k/(r + 1), so the terms after k add at most
    rho q^{k+1}; the sum stops once that is below 10^-(dps + 2).
    """
    with mpmath.workdps(dps + 10):
        a, l, m = mpmath.mpf(alpha), mpmath.mpf(lam), mpmath.mpf(mu)
        q, r = a / (a + m), a / m
        eps = mpmath.mpf(10) ** -(dps + 5)
        total, b = mpmath.mpf(1), l / m
        while b * q >= mpmath.mpf(10) ** -(dps + 2):
            b *= q
            pmf, s, j = mpmath.exp(-b), mpmath.mpf(0), 0
            while True:
                j += 1
                pmf *= b / j
                s += pmf * j / (r + j)
                if pmf < eps * s:
                    break
            total += s
        return float(total)


def _mp_jensen(alpha, lam, mu, dps=30):
    """1 + sum_{k>=1} b_k/(b_k + r) in mpmath; the terms after k add at most rho q^{k+1} (r + 1)/r."""
    with mpmath.workdps(dps + 10):
        a, l, m = mpmath.mpf(alpha), mpmath.mpf(lam), mpmath.mpf(mu)
        q, r = a / (a + m), a / m
        total, b = mpmath.mpf(1), l / m
        while b * q * (r + 1) / r >= mpmath.mpf(10) ** -(dps + 2):
            b *= q
            total += b / (b + r)
        return float(total)


class TestArraySeries:
    @pytest.mark.parametrize("alpha,lam,loop_exact,loop_terms,jensen,head", GOLDEN)
    def test_matches_term_by_term_loop(self, alpha, lam, loop_exact, loop_terms, jensen, head):
        rep = en_exact(ModelParams(alpha, lam, 1.0))
        assert rep.en_exact == pytest.approx(MP_REFERENCE[alpha, lam], rel=1e-12, abs=0)
        assert abs(rep.en_exact - loop_exact) <= (loop_terms + 1) * 1e-10
        assert rep.en_bound_jensen == pytest.approx(jensen, rel=1e-12, abs=0)
        assert rep.terms_used_k == head

    @pytest.mark.parametrize("alpha,lam", [(g[0], g[1]) for g in GOLDEN if g[0] <= 2])
    def test_matches_mpmath_poisson_series(self, alpha, lam):
        rep = en_exact(ModelParams(alpha, lam, 1.0))
        ref = _mp_series(alpha, lam, 1.0)
        assert ref == MP_REFERENCE[alpha, lam]
        assert rep.en_exact == pytest.approx(ref, rel=1e-12, abs=0)
        assert _mp_jensen(alpha, lam, 1.0) == next(g[4] for g in GOLDEN if g[:2] == (alpha, lam))

    @pytest.mark.parametrize("alpha,lam", [(g[0], g[1]) for g in GOLDEN])
    def test_truncation_bound_covers_the_error(self, alpha, lam):
        # the remainder plus a few roundings per term of the 64-term series
        rep = en_exact(ModelParams(alpha, lam, 1.0))
        ref = MP_REFERENCE[alpha, lam]
        assert abs(rep.en_exact - ref) <= rep.truncation_bound + 1e-14 * ref

    def test_p_ek_series_is_one_entry_of_the_sum(self):
        p = ModelParams(2, 5, 1)
        rep = en_exact(p)
        # b_k = 5 (2/3)^k is below 1e-300 from k = 1708 on
        total = 1.0 + sum(1.0 - p_ek_series(p, k) for k in range(1, 1710))
        assert rep.en_exact == pytest.approx(total, rel=1e-13)

    def test_hyp1f1_nan_point_keeps_bound_chain(self):
        # found by a log-uniform scan: scipy's hyp1f1 is NaN at b_1 = 8.3e10 (r = 44.05)
        rep = en_exact(ModelParams(9.888827617754983e-05, 185894.87763320244, 2.245138917244896e-06))
        assert math.isfinite(rep.en_exact)
        assert 1.0 <= rep.en_exact <= rep.en_bound_jensen <= rep.en_bound_simple

    def test_large_r_sums_past_the_old_k_cap(self):
        # r = 1.6e10: rho q^k stays above 1e-10 for about 4e11 k, all in the power
        # series; ln q taken as math.log(q) would put the Jensen bound 1.2e-5 above 1 + rho
        rep = en_exact(ModelParams(364600.2628770869, 0.0003965354503036356, 2.3102337442754877e-05))
        assert math.isfinite(rep.en_exact) and math.isfinite(rep.en_bound_jensen)
        assert 1.0 <= rep.en_exact <= rep.en_bound_jensen <= rep.en_bound_simple

    @given(
        alpha=st.floats(-6, 6).map(lambda e: 10.0**e),
        lam=st.floats(-6, 6).map(lambda e: 10.0**e),
        mu=st.floats(-6, 6).map(lambda e: 10.0**e),
    )
    @settings(max_examples=60, deadline=None)
    def test_wide_range_finite_or_typed_error(self, alpha, lam, mu):
        p = ModelParams(alpha, lam, mu)
        try:
            rep = en_exact(p)
        except ConvergenceError as e:
            # only the head cap, or alpha/mu overflowing, may stop the sum
            assert "terms above the power-series cut" in str(e) or "alpha/mu overflows" in str(e)
            return
        assert math.isfinite(rep.en_exact) and math.isfinite(rep.en_bound_jensen)
        assert 1.0 <= rep.en_exact + 1e-9
        assert rep.en_exact <= rep.en_bound_jensen + 1e-9
        assert rep.en_bound_jensen <= rep.en_bound_simple + 1e-9


class TestAvgAge:
    @pytest.mark.parametrize("alpha,expected", [(2.0, 1.0), (0.5, 4.0), (1.0, 2.0)])
    def test_two_over_alpha(self, alpha, expected):
        assert avg_age(ModelParams(alpha, 1, 1)) == expected
