import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcumem.core import ConvergenceError, DomainError, ModelParams, SeriesControl
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

CTRL = SeriesControl()
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


class TestPEkSeries:
    def test_no_readers(self):
        assert p_ek_series(ModelParams(1, 0, 1), 1, CTRL) == 1.0

    def test_matches_quadrature_unit(self):
        p = ModelParams(1, 1, 1)
        s = p_ek_series(p, 1, CTRL)
        q = p_ek_quadrature(p, 1, CTRL)
        assert 0 < s < 1
        assert s == pytest.approx(q, abs=1e-8)

    def test_large_k_tends_to_one(self):
        p = ModelParams(1, 1, 1)
        v = p_ek_series(p, 40, CTRL)
        assert v >= 1 - 1e-6
        # complement bounded by b_k itself
        assert 1 - v <= 2.0**-40 + 1e-12


class TestPEkQuadrature:
    def test_no_readers(self):
        assert p_ek_quadrature(ModelParams(1, 0, 1), 2, CTRL) == pytest.approx(1.0, abs=1e-10)

    def test_slow_writer_endpoint_substitution(self):
        # alpha/mu < 1 exercises the singularity-removing substitution
        p = ModelParams(0.5, 10, 1)
        assert p_ek_quadrature(p, 1, CTRL) == pytest.approx(p_ek_series(p, 1, CTRL), abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0, 10.0, 100.0])
    @pytest.mark.parametrize("lam", [0.5, 5.0, 10.0])
    def test_equivalence_grid(self, alpha, lam):
        p = ModelParams(alpha, lam, 1.0)
        for k in range(1, 21):
            assert p_ek_series(p, k, CTRL) == pytest.approx(p_ek_quadrature(p, k, CTRL), abs=1e-8)


class TestFootprint:
    def test_no_readers_exact_one(self):
        rep = en_exact(ModelParams(1, 0, 1), CTRL)
        assert rep.en_exact == 1.0
        assert rep.en_bound_jensen == 1.0
        assert rep.en_bound_simple == 1.0

    def test_fast_writer_approaches_simple_bound(self):
        rep = en_exact(ModelParams(1000, 10, 1), CTRL)
        assert 10.5 < rep.en_exact < 11.0

    def test_truncation_bound_below_tol(self):
        for p in [ModelParams(1, 1, 1), ModelParams(10, 5, 2), ModelParams(0.3, 8, 1)]:
            rep = en_exact(p, CTRL)
            assert rep.truncation_bound <= CTRL.tol
            assert rep.terms_used_k >= 1

    def test_jensen_unit_point_direct_summation(self):
        # independent oracle: partial sums of q^k/(q^k + 1) with q = 1/2
        q, s, k = 0.5, 1.0, 0
        while True:
            k += 1
            t = q**k / (q**k + 1.0)
            s += t
            if t < 1e-14:
                break
        assert en_bound_jensen(ModelParams(1, 1, 1), CTRL) == pytest.approx(s, abs=1e-9)

    def test_simple_bound_values(self):
        assert en_bound_simple(ModelParams(1, 10, 1)) == 11.0
        assert en_bound_simple(ModelParams(1, 0, 1)) == 1.0
        assert en_bound_simple(ModelParams(1, 5, 2)) == 3.5

    @given(alpha=rates, lam=st.floats(0, 30), mu=rates)
    @settings(max_examples=40, deadline=None)
    def test_bound_chain(self, alpha, lam, mu):
        p = ModelParams(alpha, lam, mu)
        rep = en_exact(p, CTRL)
        assert 1.0 <= rep.en_exact + 1e-9
        assert rep.en_exact <= rep.en_bound_jensen + 1e-9
        assert rep.en_bound_jensen <= rep.en_bound_simple + 1e-9

    def test_monotone_in_lambda(self):
        vals = [en_exact(ModelParams(2, lam, 1), CTRL).en_exact for lam in range(0, 21, 2)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_alpha(self):
        vals = [en_exact(ModelParams(a, 5, 1), CTRL).en_exact for a in (0.1, 0.3, 1, 3, 10, 30, 100)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 6.0


# (alpha, lam, en_exact, en_bound_jensen, terms_used_k, truncation_bound) at mu = 1,
# as computed term by term: one p_ek_series call and one Jensen term per k
GOLDEN = [
    (0.5, 1, 1.3027308604568435, 1.6871501299921998, 21, 9.559906635974793e-11),
    (0.5, 5, 2.098827100312841, 2.7355997186831797, 23, 5.311059242208218e-11),
    (0.5, 10, 2.6411348254924722, 3.299144128206386, 24, 3.540706161472145e-11),
    (1, 1, 1.449883108025035, 1.7644997802902365, 34, 5.820766091346741e-11),
    (1, 5, 2.6106272722516444, 3.1763070169978915, 36, 7.275957614183426e-11),
    (1, 10, 3.411974861622082, 4.009640350331224, 37, 7.275957614183426e-11),
    (2, 1, 1.6063895124282987, 1.8408488249422106, 57, 9.179060531410428e-11),
    (2, 5, 3.2500550014361367, 3.739450686218807, 61, 9.065738796454742e-11),
    (2, 10, 4.467008296670195, 5.00704661266969, 63, 8.058434485737547e-11),
    (100, 1, 1.985300608817079, 1.9950576333971388, 2315, 9.908768754122009e-11),
    (100, 5, 5.833516363954689, 5.879599123798011, 2476, 9.982711461229404e-11),
    (100, 10, 10.447089005318018, 10.533208022651467, 2546, 9.949066859050368e-11),
    (1000, 1, 1.9985030741396455, 1.9995005825259702, 23038, 9.993624596780499e-11),
    (1000, 5, 5.9825898558323285, 5.98754771640994, 24648, 9.996047106798842e-11),
    (1000, 10, 10.940513108445348, 10.950355511170978, 25342, 9.990989880876817e-11),
    (3000, 1, 1.9995003410327854, 1.999833398021958, 69090, 9.996884590625614e-11),
    (3000, 5, 5.9941766896595325, 5.995838649872291, 73919, 9.99727911489196e-11),
    (3000, 10, 10.980057394108835, 10.983373042941741, 75998, 9.99990529410929e-11),
]


class TestArraySeries:
    @pytest.mark.parametrize("alpha,lam,exact,jensen,terms,bound", GOLDEN)
    def test_matches_term_by_term_loop(self, alpha, lam, exact, jensen, terms, bound):
        rep = en_exact(ModelParams(alpha, lam, 1.0), CTRL)
        assert rep.en_exact == pytest.approx(exact, rel=1e-12, abs=0)
        assert rep.en_bound_jensen == pytest.approx(jensen, rel=1e-12, abs=0)
        assert rep.terms_used_k == terms
        assert rep.truncation_bound == bound

    def test_p_ek_series_is_one_entry_of_the_sum(self):
        p = ModelParams(2, 5, 1)
        rep = en_exact(p, CTRL)
        total = 1.0 + sum(1.0 - p_ek_series(p, k, CTRL) for k in range(1, rep.terms_used_k + 1))
        assert rep.en_exact == pytest.approx(total, rel=1e-13)

    @given(
        alpha=st.floats(-6, 6).map(lambda e: 10.0**e),
        lam=st.floats(-6, 6).map(lambda e: 10.0**e),
        mu=st.floats(-6, 6).map(lambda e: 10.0**e),
    )
    @settings(max_examples=60, deadline=None)
    def test_wide_range_finite_or_typed_error(self, alpha, lam, mu):
        p = ModelParams(alpha, lam, mu)
        try:
            rep = en_exact(p, CTRL)
        except (ConvergenceError, DomainError):
            return
        assert math.isfinite(rep.en_exact) and math.isfinite(rep.en_bound_jensen)
        assert 1.0 <= rep.en_exact + 1e-9
        assert rep.en_exact <= rep.en_bound_jensen + 1e-9
        assert rep.en_bound_jensen <= rep.en_bound_simple + 1e-9


class TestAvgAge:
    @pytest.mark.parametrize("alpha,expected", [(2.0, 1.0), (0.5, 4.0), (1.0, 2.0)])
    def test_two_over_alpha(self, alpha, expected):
        assert avg_age(ModelParams(alpha, 1, 1)) == expected
