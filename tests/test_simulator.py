import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from rcumem import simulator
from rcumem.core import DomainError, ModelParams, RandomSource
from rcumem.analytics import en_exact
from rcumem.simulator import (
    ConfigError,
    SimConfig,
    estimate_age_from_polygons,
    simulate,
    simulate_n_distribution,
)


def sawtooth_area(write_times) -> float:
    """Direct accounting of the sawtooth area estimate_age_from_polygons sums, for cross-checking.

    Integrates the age over (t_1, t_N) directly: on each interval the age
    ramps from W_{n-1} to W_{n-1}+W_n. Equals the polygon sum minus the
    boundary terms W_1^2/2 - W_N^2/2.
    """
    w = np.asarray(write_times, dtype=float)
    if len(w) < 2:
        raise DomainError("need at least 2 write intervals")
    return float((w[:-1] * w[1:] + 0.5 * w[1:] ** 2).sum())


class TestSimConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"horizon_publications": 999},
            {"batch_count": 9},
            {"warmup_time": -1.0},
            {"horizon_publications": 1000, "batch_count": 1001},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            SimConfig(**kw)


class TestSimulate:
    def test_no_readers(self):
        stats = simulate(ModelParams(1, 0, 1), SimConfig(seed=1, horizon_publications=5000, sample_n_distribution=True))
        assert stats.mean_active_updates == 1.0
        assert stats.reads_served == 0
        assert stats.n_histogram == {1: pytest.approx(1.0)}

    def test_age_law(self):
        stats = simulate(ModelParams(1, 1, 1), SimConfig(seed=11, horizon_publications=100_000))
        assert stats.mean_age == pytest.approx(2.0, rel=0.02)

    def test_mm_infinity_read_marginal(self):
        # time-average in-flight reads is lam/mu
        stats = simulate(ModelParams(1, 4, 2), SimConfig(seed=5, horizon_publications=50_000))
        assert stats.mean_busy_readers == pytest.approx(2.0, rel=0.05)

    def test_deterministic(self):
        cfg = SimConfig(seed=99, horizon_publications=5000, sample_n_distribution=True)
        a = simulate(ModelParams(2, 3, 1), cfg)
        b = simulate(ModelParams(2, 3, 1), cfg)
        assert a == b

    def test_mean_n_at_least_one(self):
        stats = simulate(ModelParams(0.5, 2, 1), SimConfig(seed=4, horizon_publications=5000))
        assert stats.mean_active_updates >= 1.0
        assert stats.ci_half_width_n >= 0.0
        assert stats.ci_half_width_age >= 0.0
        assert stats.publications == 5000

    def test_update_records_invariants(self):
        stats = simulate(
            ModelParams(1, 3, 1),
            SimConfig(seed=8, horizon_publications=2000, record_updates=200),
        )
        closed = [r for r in stats.update_records if r.replace_time is not None]
        assert len(closed) >= 150
        for r in closed:
            assert r.publish_time < r.replace_time
            if r.grace_end_time is None:
                continue
            if r.residual_readers > 0:
                assert r.grace_end_time > r.replace_time
            else:
                assert r.grace_end_time == r.replace_time


# SimStats of the one-event-at-a-time heap simulator this package used to
# ship, on the same (seed, stream) draws. "readers" ends with the copy
# replaced at the final publication (no readers, so its grace ends then) and
# a locked copy left open; "fast_writer" has a warmup of ~18 slabs.
PATHWISE_CASES = {
    "readers": ((1, 3, 1), dict(seed=1, horizon_publications=20_000, sample_n_distribution=True, record_updates=20_000)),
    "no_readers": ((2, 0, 1), dict(seed=3, horizon_publications=5_000, sample_n_distribution=True, record_updates=50)),
    "fast_writer": ((3000, 10, 1), dict(seed=9, horizon_publications=40_000, sample_n_distribution=True, record_updates=40_000)),
}
PATHWISE_GOLDEN = {
    "readers": {
        "mean_active_updates": 2.005677885491068,
        "mean_age": 1.9990237659488583,
        "ci_half_width_n": 0.02213016333821433,
        "ci_half_width_age": 0.043540868701212744,
        "publications": 20000,
        "reads_served": 60010,
        "mean_busy_readers": 3.017363015822356,
        "n_histogram": {
            1: 0.3203519247823733, 2: 0.4214079001328472, 3: 0.2003745684568375, 4: 0.04894885267822326,
            5: 0.008025159142179808, 6: 0.0007818263255940269, 7: 0.0001038571603991455,
            8: 5.911321545809523e-06,
        },
        "indices": (104, 20103),
        "residuals": {0: 6333, 1: 5384, 2: 3792, 3: 2298, 4: 1266, 5: 572, 6: 231, 7: 86, 8: 30, 9: 7, 10: 1},
        "index_residual_sum": 302282780,
        "open_grace": [20100, 20103],
        "publish_sum": 201420369.31950733,
        "grace_sum": 201420276.29465446,
        "tail": [
            (20102, 19980.608866872302, 19980.72697740833, 0, 19980.72697740833),
            (20103, 19980.72697740833, None, 0, None),
        ],
    },
    "no_readers": {
        "mean_active_updates": 1.0,
        "mean_age": 1.0117435733184166,
        "ci_half_width_n": 0.0,
        "ci_half_width_age": 0.03677493492954838,
        "publications": 5000,
        "reads_served": 0,
        "mean_busy_readers": 0.0,
        "n_histogram": {1: 1.0},
        "indices": (206, 255),
        "residuals": {0: 50},
        "index_residual_sum": 0,
        "open_grace": [],
        "publish_sum": 5456.967670655919,
        "grace_sum": 5475.993545992277,
        "tail": [
            (254, 118.89178830735665, 119.0441892876122, 0, 119.0441892876122),
            (255, 119.0441892876122, 119.20699688012127, 0, 119.20699688012127),
        ],
    },
    "fast_writer": {
        "mean_active_updates": 9.309931183601272,
        "mean_age": 0.0006691058256375758,
        "ci_half_width_n": 1.0099776646501002,
        "ci_half_width_age": 9.949421923703294e-06,
        "publications": 40000,
        "reads_served": 133,
        "mean_busy_readers": 8.372789238774033,
        "n_histogram": {
            4: 0.025942992557189678, 5: 0.03359633066608251, 6: 0.07990914353739945, 7: 0.09823075501860525,
            8: 0.12503914108341008, 9: 0.18163812648604166, 10: 0.12934315912251082, 11: 0.13777744732019662,
            12: 0.09687215079953758, 13: 0.0425351852585134, 14: 0.027648375486625614,
            15: 0.01890792249154031, 16: 0.002559270172347032,
        },
        "indices": (299893, 339892),
        "residuals": {0: 39875, 1: 124, 2: 1},
        "index_residual_sum": 40179627,
        "open_grace": [333390, 334637, 336067, 336713, 338566, 339892],
        "publish_sum": 4268878.122058921,
        "grace_sum": 4268314.225237049,
        "tail": [
            (339891, 113.45130541925481, 113.45130878387663, 0, 113.45130878387663),
            (339892, 113.45130878387663, None, 0, None),
        ],
    },
}


def _pathwise_digest(stats):
    recs = stats.update_records
    return {
        "mean_active_updates": stats.mean_active_updates,
        "mean_age": stats.mean_age,
        "ci_half_width_n": stats.ci_half_width_n,
        "ci_half_width_age": stats.ci_half_width_age,
        "publications": stats.publications,
        "reads_served": stats.reads_served,
        "mean_busy_readers": stats.mean_busy_readers,
        "n_histogram": stats.n_histogram,
        "indices": (recs[0].index, recs[-1].index),
        "residuals": dict(sorted(Counter(r.residual_readers for r in recs).items())),
        "index_residual_sum": sum(r.index * r.residual_readers for r in recs),
        "open_grace": [r.index for r in recs if r.grace_end_time is None],
        "publish_sum": math.fsum(r.publish_time for r in recs),
        "grace_sum": math.fsum(r.grace_end_time for r in recs if r.grace_end_time is not None),
        "tail": [tuple(r.__dict__.values()) for r in recs[-2:]],
    }


class TestPathwise:
    @pytest.mark.parametrize("name", sorted(PATHWISE_CASES))
    def test_matches_event_loop(self, name):
        params, kw = PATHWISE_CASES[name]
        stats = simulate(ModelParams(*params), SimConfig(**kw))
        recs = stats.update_records
        assert [r.index for r in recs] == list(range(recs[0].index, recs[-1].index + 1))
        got, want = _pathwise_digest(stats), PATHWISE_GOLDEN[name]
        assert got.keys() == want.keys()
        for key, value in want.items():
            if key == "n_histogram":
                assert list(got[key]) == list(value)
                assert got[key] == pytest.approx(value, rel=1e-9)
            elif key == "tail":
                assert got[key] == [pytest.approx(r, rel=1e-9) for r in value]
            elif isinstance(value, float):
                assert got[key] == pytest.approx(value, rel=1e-9), key
            else:
                assert got[key] == value, key

    def test_memory_flat_in_horizon(self):
        def peak(horizon):
            tracemalloc.start()
            try:
                simulate(ModelParams(100, 1, 1), SimConfig(seed=1, horizon_publications=horizon))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(400_000) <= 1.5 * peak(50_000)


SLAB_CASES = {
    "read_heavy": (
        (1, 10, 1),
        {"seed": 3, "horizon_publications": 20_000, "sample_n_distribution": True, "record_updates": 20_005},
    ),
    "write_heavy": ((1000, 1, 1), {"seed": 3, "horizon_publications": 20_000}),
    # one publication per batch: many boundaries per slab, and extensions straddling several
    "batch_per_publication": ((0.5, 10, 1), {"seed": 3, "horizon_publications": 5_000, "batch_count": 5_000}),
}


class TestSlabIndependence:
    """The sample path, and so every statistic, does not depend on the slab size."""

    @pytest.mark.parametrize("slab_events", [64, 1000])
    @pytest.mark.parametrize("name", sorted(SLAB_CASES))
    def test_same_stats_as_default_slabs(self, name, slab_events, monkeypatch):
        params, kw = SLAB_CASES[name]
        want = simulate(ModelParams(*params), SimConfig(**kw))
        monkeypatch.setattr(simulator, "_SLAB_EVENTS", slab_events)
        got = simulate(ModelParams(*params), SimConfig(**kw))
        for field in ("mean_active_updates", "mean_age", "ci_half_width_n", "ci_half_width_age", "mean_busy_readers"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12, abs=0.0), field
        assert (got.publications, got.reads_served) == (want.publications, want.reads_served)
        assert got.update_records == want.update_records
        if want.n_histogram is None:
            assert got.n_histogram is None
        else:
            assert list(got.n_histogram) == list(want.n_histogram)
            assert got.n_histogram == pytest.approx(want.n_histogram, rel=1e-12, abs=0.0)


class TestTQuantile:
    def test_matches_scipy(self):
        from scipy.special import stdtrit

        for nu in range(9, 1001):
            assert simulator._t975(nu) == pytest.approx(stdtrit(nu, 0.975), rel=1e-13, abs=0.0), nu
        assert simulator._t975(10**6) == pytest.approx(stdtrit(10**6, 0.975), rel=1e-10, abs=0.0)


class TestHistogramMatchesArea:
    """The histogram and the footprint area are summed separately; their means agree."""

    @pytest.mark.parametrize(
        "params,seed",
        [((1, 0, 1), 2), ((1, 10, 1), 3), ((0.5, 5, 1), 4), ((1000, 1, 1), 5), ((100, 10, 1), 6)],
    )
    @pytest.mark.parametrize("warmup", [0.0, None])
    def test_histogram_mean_is_mean_active_updates(self, params, seed, warmup):
        stats = simulate(
            ModelParams(*params),
            SimConfig(seed=seed, warmup_time=warmup, horizon_publications=20_000, sample_n_distribution=True),
        )
        hist = stats.n_histogram
        assert max(hist) < 1 + math.ceil(10.0 * params[1] / params[2]) + 20  # no mass lumped into the cap
        assert math.fsum(hist.values()) == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert math.fsum(n * p for n, p in hist.items()) == pytest.approx(
            stats.mean_active_updates, rel=1e-12, abs=0.0
        )
        if params[1] == 0:
            assert stats.mean_active_updates == 1.0 and hist == {1: 1.0}


class TestNDistribution:
    def test_requires_flag(self):
        with pytest.raises(ConfigError):
            simulate_n_distribution(ModelParams(1, 1, 1), SimConfig(seed=1, horizon_publications=1000))

    def test_point_mass_without_readers(self):
        dist = simulate_n_distribution(
            ModelParams(1, 0, 1), SimConfig(seed=1, horizon_publications=2000, sample_n_distribution=True)
        )
        assert set(dist) == {1}

    def test_fast_writer_poisson_mean(self):
        # alpha >> lam: N - 1 concentrates on the in-flight read count, mean lam/mu
        stats = simulate(
            ModelParams(1000, 1, 1),
            SimConfig(seed=21, horizon_publications=200_000, sample_n_distribution=True),
        )
        assert stats.mean_active_updates - 1 == pytest.approx(1.0, abs=3 * stats.ci_half_width_n + 0.02)


class TestSimVsAnalytics:
    def test_fast_writer_footprint_matches_series(self):
        # the series footprint is accurate when updates rarely carry >1 residual reader
        p = ModelParams(50, 2, 1)
        stats = simulate(p, SimConfig(seed=31, horizon_publications=200_000))
        target = en_exact(p).en_exact
        assert stats.mean_active_updates == pytest.approx(target, rel=0.02)


class TestPolygonAge:
    def test_deterministic_unit_sawtooth(self):
        assert estimate_age_from_polygons([1.0] * 10) == pytest.approx(1.5)

    def test_two_intervals(self):
        # Q_2 = W1^2/2 + W1*W2 = 6 over W2 = 2
        assert estimate_age_from_polygons([2.0, 2.0]) == pytest.approx(3.0)

    def test_exponential_sample_age(self):
        w = RandomSource(17, "ages").exponential(1.0, 100_000)
        assert estimate_age_from_polygons(w) == pytest.approx(2.0, rel=0.02)

    def test_too_few_intervals(self):
        with pytest.raises(DomainError):
            estimate_age_from_polygons([1.0])

    def test_polygon_sum_equals_direct_integral_on_same_path(self):
        # same area, two accountings: polygons differ from the slicewise
        # integral over (t_1, t_N) only by the fixed boundary triangles
        w = RandomSource(23, "ages").exponential(0.7, 10_000)
        poly = (0.5 * w[:-1] ** 2 + w[:-1] * w[1:]).sum()
        direct = sawtooth_area(w)
        boundary = 0.5 * w[0] ** 2 - 0.5 * w[-1] ** 2
        assert poly == pytest.approx(direct + boundary, rel=1e-9)

    def test_estimator_matches_direct_time_average(self):
        w = RandomSource(29, "ages").exponential(1.3, 200_000)
        est = estimate_age_from_polygons(w)
        direct = sawtooth_area(w) / w[1:].sum()
        # boundary terms vanish at O(1/N)
        assert est == pytest.approx(direct, rel=1e-3)
