import heapq
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import rcumem
from rcumem import simulator
from rcumem.core import DomainError, ModelParams, RandomSource
from rcumem.analytics import en_exact
from rcumem.simulator import ConfigError, SimConfig, simulate


def estimate_age_from_polygons(write_times) -> float:
    """Average age from the sawtooth polygon decomposition of write intervals.

    Each publication's polygon has area W_{n-1}^2/2 + W_{n-1} W_n (the big
    triangle on W_{n-1}+W_n minus the triangle on W_n); the estimate is the
    summed area over the summed interval lengths, n >= 2.
    """
    w = np.asarray(write_times, dtype=float)
    if w.ndim != 1 or len(w) < 2:
        raise DomainError("need at least 2 write intervals")
    if np.any(w < 0):
        raise DomainError("write intervals must be nonnegative")
    q = 0.5 * w[:-1] ** 2 + w[:-1] * w[1:]
    return float(q.sum() / w[1:].sum())


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
            {"horizon_publications": 1000, "batch_count": 1001},
            {"horizon_publications": 1000.5},
            {"batch_count": 10.5},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            SimConfig(**kw)

    def test_no_warmup_field(self):
        # every run starts in its stationary state; a warmup is refused, not ignored
        with pytest.raises(TypeError):
            SimConfig(warmup_time=100.0)

    def test_no_record_field(self):
        # no per-update records are kept; asking for them is refused, not ignored
        with pytest.raises(TypeError):
            SimConfig(record_updates=10)
        assert not hasattr(rcumem, "UpdateRecord") and "UpdateRecord" not in rcumem.__all__


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


def _event_loop(params, config):
    """simulate's SimStats by one event at a time, and how many reads in service at 0 complete.

    The state at 0 is _stationary_state's draw; after it the publications,
    read arrivals and completions go through one heap, and the "writes",
    "arrivals" and "services" streams are drawn one variate at a time. At
    equal times a publication comes first, then an arrival, then a
    completion. The run stops at the horizon's last publication, so a read
    completing then is not served.
    """
    alpha, lam, mu = params
    source = simulator.RandomSource  # looked up per call, so a test can swap the stream class
    start, origin, arr, comp, open_grace, open_reads = simulator._stationary_state(
        ModelParams(*params), source(config.seed, "initial")
    )
    writes = source(config.seed, "writes")
    arrivals = source(config.seed, "arrivals")
    services = source(config.seed, "services")
    horizon, nb = config.horizon_publications, config.batch_count
    boundaries = {((i + 1) * horizon) // nb for i in range(nb)}

    PUB, ARRIVE, DONE = 0, 1, 2
    heap, seq = [], 0

    def push(t, kind, copy=None):
        nonlocal seq
        heapq.heappush(heap, (float(t), kind, seq, copy))
        seq += 1

    # copy 0 is current at 0; a completion's copy is None for a read on a stale copy of the draw,
    # and -1 for the end of such a copy's grace period, since the draw does not say which reads it holds
    cur, born = 0, origin  # the current copy, and the publish time of the one before it
    publish = {0: start}
    locks = {0: len(arr)}
    for c in comp:
        push(c, DONE, 0)
    for c in open_reads:
        push(c, DONE, None)
    for g in open_grace:
        push(g, DONE, -1)
    stale, busy = len(open_grace), len(arr) + len(open_reads)
    push(writes.exponential(alpha), PUB)
    if lam > 0:
        push(arrivals.exponential(lam), ARRIVE)

    now = 0.0
    area_stale = area_age = area_busy = 0.0
    hist = Counter()
    snaps = [(0.0, 0.0, 0.0)]
    pubs = served = 0
    while True:
        t, kind, _, copy = heapq.heappop(heap)
        dt = t - now
        area_stale += stale * dt
        area_age += (now - born + 0.5 * dt) * dt
        area_busy += busy * dt
        hist[1 + stale] += dt
        now = t
        if kind == PUB:
            pubs += 1
            if locks[cur]:
                stale += 1
            born, cur = publish[cur], pubs
            publish[cur], locks[cur] = t, 0
            if pubs in boundaries:
                snaps.append((area_stale, area_age, t))
            if pubs == horizon:
                break
            push(t + writes.exponential(alpha), PUB)
        elif kind == ARRIVE:
            locks[cur] += 1
            busy += 1
            push(t + services.exponential(mu), DONE, cur)
            push(t + arrivals.exponential(lam), ARRIVE)
        elif copy == -1:
            stale -= 1
        else:
            busy -= 1
            served += 1
            if copy is not None:
                locks[copy] -= 1
                if copy != cur and locks[copy] == 0:
                    stale -= 1

    served_at_zero = int(np.count_nonzero(np.concatenate((comp, open_reads)) < now))
    snaps = np.array(snaps)
    means = np.diff(snaps[:, :2], axis=0) / np.diff(snaps[:, 2])[:, None]
    ci_n, ci_age = simulator._t975(nb - 1) * means.std(axis=0, ddof=1) / math.sqrt(nb)
    stats = simulator.SimStats(
        mean_active_updates=1.0 + area_stale / now,
        mean_age=area_age / now,
        ci_half_width_n=float(ci_n),
        ci_half_width_age=float(ci_age),
        publications=pubs,
        reads_served=served,
        mean_busy_readers=area_busy / now,
        n_histogram={n: w / now for n, w in sorted(hist.items()) if w > 0} if config.sample_n_distribution else None,
    )
    return stats, served_at_zero


class _GridSource(RandomSource):
    """A RandomSource whose exponentials are rounded up to multiples of 1/8, so event times tie often."""

    def exponential(self, rate, size=None):
        return np.ceil(super().exponential(rate, size) * 8.0) / 8.0


# (params, config, _SLAB_EVENTS or None for the default, stream class); every case keeps
# 20,000 publications or fewer, since the reference takes about 1 s per 1e5 events
PATHWISE_CASES = {
    "readers": ((1, 3, 1), dict(seed=1, horizon_publications=20_000), None, RandomSource),
    "no_readers": ((2, 0, 1), dict(seed=3, horizon_publications=5_000), None, RandomSource),
    # about 10 reads in service at 0 and 67 arrivals over the run's 6.7 time units
    "fast_writer": ((3000, 10, 1), dict(seed=9, horizon_publications=20_000), None, RandomSource),
    # slabs of 127 publications (twice 64 * 3000/3010, as publications outnumber reads): the stale
    # copies locked at 0 are carried across many of them
    "fast_writer_small_slabs": ((3000, 10, 1), dict(seed=9, horizon_publications=20_000), 64, RandomSource),
    "read_heavy": ((0.5, 10, 1), dict(seed=4, horizon_publications=2_000), None, RandomSource),
    # one batch per publication in slabs of 3 publications: boundaries fall in every slab, and
    # extensions straddle them
    "batch_per_publication": (
        (0.5, 10, 1), dict(seed=5, horizon_publications=2_000, batch_count=2_000), 64, RandomSource
    ),
    # one slab, shorter than the default
    "short_horizon": ((100, 1, 1), dict(seed=2, horizon_publications=1_000), None, RandomSource),
    # publications, arrivals and completions on a 1/8 grid, so the tie order decides windows and
    # residuals; at about 2 reads per publication, 63 of the 239 slabs of 64 events hold more than
    # twice as many reads as publications, so both _read_windows branches are taken; and at seed 7
    # a read completes at the last publication, so it is not served
    "ties": ((1, 2, 1), dict(seed=7, horizon_publications=5_000), 64, _GridSource),
}


class TestPathwise:
    @pytest.mark.parametrize("name", sorted(PATHWISE_CASES))
    def test_matches_event_loop(self, name, monkeypatch):
        params, kw, slab_events, source = PATHWISE_CASES[name]
        monkeypatch.setattr(simulator, "RandomSource", source)
        if slab_events is not None:
            monkeypatch.setattr(simulator, "_SLAB_EVENTS", slab_events)
        config = SimConfig(sample_n_distribution=True, **kw)
        got = simulate(ModelParams(*params), config)
        want, served_at_zero = _event_loop(params, config)
        # the reads in service at 0 count toward reads_served
        assert (served_at_zero > 0) == (params[1] > 0)
        for field in ("mean_active_updates", "mean_age", "ci_half_width_n", "ci_half_width_age", "mean_busy_readers"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9, abs=0.0), field
        assert (got.publications, got.reads_served) == (want.publications, want.reads_served)
        assert list(got.n_histogram) == list(want.n_histogram)
        assert got.n_histogram == pytest.approx(want.n_histogram, rel=1e-9, abs=0.0)

    def test_memory_flat_in_horizon(self):
        RandomSource(0)  # numpy.random's import is not the simulator's

        def peak(horizon):
            tracemalloc.start()
            try:
                simulate(ModelParams(100, 1, 1), SimConfig(seed=1, horizon_publications=horizon))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(400_000) <= 1.5 * peak(50_000)

    def test_peak_within_six_slab_arrays(self):
        # a slab here holds 2 slab = 32,735 publications, as publications outnumber reads; the run
        # holds two such arrays, the slab's draws and its publication times (the draws are dropped
        # before the next slab draws, and the age areas of its 10,000-window batches are dot
        # products), so the peak is about 4 slab arrays, with room to spare. numpy.random is
        # imported first, since its import is not the simulator's
        slab = int(simulator._SLAB_EVENTS * 1000 / 1001)
        RandomSource(0)
        tracemalloc.start()
        try:
            simulate(ModelParams(1000, 1, 1), SimConfig(seed=1, horizon_publications=200_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * slab


SLAB_CASES = {
    "read_heavy": ((1, 10, 1), {"seed": 3, "horizon_publications": 20_000, "sample_n_distribution": True}),
    "write_heavy": ((1000, 1, 1), {"seed": 3, "horizon_publications": 20_000}),
    # one publication per batch: many boundaries per slab, and extensions straddling several
    "batch_per_publication": ((0.5, 10, 1), {"seed": 3, "horizon_publications": 5_000, "batch_count": 5_000}),
    # about 2 reads per publication: slabs fall on both sides of _read_windows' switch
    "mixed": ((1, 2, 1), {"seed": 3, "horizon_publications": 20_000, "sample_n_distribution": True}),
    # a stationary start at alpha >> mu: the stale copies locked at time 0 stay locked for
    # about 1/mu = 3,000 publications, so they are carried across many slabs of 127
    "stationary_fast_writer": (
        (3000, 10, 1), {"seed": 3, "horizon_publications": 20_000, "sample_n_distribution": True}
    ),
    # a horizon shorter than one default slab of 32,443 publications
    "short_horizon": ((100, 1, 1), {"seed": 3, "horizon_publications": 1_000, "sample_n_distribution": True}),
    # 3,400-window batches: the first default slab of 32,735 publications takes its age areas from
    # dot products, the last one (1,265) and the slabs of 127 and 1,998 window by window
    "long_batches": ((1000, 1, 1), {"seed": 3, "horizon_publications": 34_000, "batch_count": 10}),
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
        if want.n_histogram is None:
            assert got.n_histogram is None
        else:
            assert list(got.n_histogram) == list(want.n_histogram)
            assert got.n_histogram == pytest.approx(want.n_histogram, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("slab_events", [64, 1000, simulator._SLAB_EVENTS])
    def test_mixed_case_takes_both_branches(self, slab_events, monkeypatch):
        params, kw = SLAB_CASES["mixed"]
        read_windows = simulator._read_windows
        above = []

        def spy(pub, a_t):
            above.append(len(a_t) > 2 * len(pub))
            return read_windows(pub, a_t)

        monkeypatch.setattr(simulator, "_read_windows", spy)
        monkeypatch.setattr(simulator, "_SLAB_EVENTS", slab_events)
        simulate(ModelParams(*params), SimConfig(**kw))
        assert any(above) and not all(above)

    @pytest.mark.parametrize(
        "slab_events,paths",
        [(64, {"windows"}), (1000, {"windows"}), (simulator._SLAB_EVENTS, {"dots", "windows"})],
    )
    def test_long_batch_case_takes_both_age_paths(self, slab_events, paths, monkeypatch):
        params, kw = SLAB_CASES["long_batches"]
        taken = set()

        def spy(name):
            age_sums = getattr(simulator, f"_age_{name}")

            def counted(*args):
                taken.add(name)
                return age_sums(*args)

            return counted

        for name in ("dots", "windows"):
            monkeypatch.setattr(simulator, f"_age_{name}", spy(name))
        monkeypatch.setattr(simulator, "_SLAB_EVENTS", slab_events)
        simulate(ModelParams(*params), SimConfig(**kw))
        assert taken == paths


# (params, horizon, _SLAB_EVENTS or None for the default, stream class)
RESUME_CASES = {
    "readers": ((1, 3, 1), 5_000, None, RandomSource),
    "no_readers": ((2, 0, 1), 5_000, None, RandomSource),
    # one default slab of 32,659 publications, and stale copies locked at 0 for about 3,000 publications
    "fast_writer": ((3000, 10, 1), 20_000, None, RandomSource),
    "small_slabs": ((0.5, 10, 1), 2_000, 64, RandomSource),
    # event times on a 1/8 grid, so the tie order decides windows and residuals
    "ties": ((1, 2, 1), 5_000, 64, _GridSource),
}


class TestResumableRun:
    """Two _Run.advance calls, with the batch boundaries split between them, give what one call gives."""

    @staticmethod
    def _compare(name, k, monkeypatch):
        params, horizon, slab_events, source = RESUME_CASES[name]
        monkeypatch.setattr(simulator, "RandomSource", source)
        if slab_events is not None:
            monkeypatch.setattr(simulator, "_SLAB_EVENTS", slab_events)
        boundaries = np.array([((i + 1) * horizon) // 20 for i in range(20)])
        one, two = (simulator._Run(ModelParams(*params), 7, histogram=True) for _ in range(2))
        want = one.advance(horizon, boundaries)
        first = two.advance(k, boundaries)
        carried = int(np.count_nonzero(two.state[5] == two.end))  # reads completing at the split
        got = np.concatenate((first, two.advance(horizon - k, boundaries)))
        assert (two.pubs, two.reads_served, two.end) == (one.pubs, one.reads_served, one.end)
        assert got.shape == want.shape == (20, 3)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        for area in ("area_stale", "area_age", "area_reads"):
            assert getattr(two, area) == pytest.approx(getattr(one, area), rel=1e-12, abs=0.0), area
        assert list(np.flatnonzero(two.hist)) == list(np.flatnonzero(one.hist))
        np.testing.assert_allclose(two.hist, one.hist, rtol=1e-12, atol=0.0)
        return carried

    @pytest.mark.parametrize("split", ["first", "mid", "last"])
    @pytest.mark.parametrize("name", sorted(RESUME_CASES))
    def test_split_matches_one_call(self, name, split, monkeypatch):
        horizon = RESUME_CASES[name][1]
        self._compare(name, {"first": 1, "mid": horizon // 2, "last": horizon - 1}[split], monkeypatch)

    def test_read_completing_at_the_split_is_carried(self, monkeypatch):
        # at seed 7 two reads complete at the 2,404th publication: held by the first call, served by the second
        assert self._compare("ties", 2404, monkeypatch) == 2


class TestTinyReadRate:
    @pytest.mark.parametrize("histogram", [False, True])
    def test_same_stats_as_no_readers(self, histogram):
        # the one read drawn arrives at inf, an Exp(5e-324) variate past the float range, and
        # warnings are errors in this suite
        config = SimConfig(seed=3, horizon_publications=2000, sample_n_distribution=histogram)
        assert simulate(ModelParams(1, 5e-324, 1), config) == simulate(ModelParams(1, 0, 1), config)


class TestWriteDraws:
    """A run draws one "writes" variate per measured publication, however the slabs fall."""

    @pytest.mark.parametrize("params,horizon", [((100, 1, 1), 1_000), ((1, 3, 1), 10_000), ((1e-3, 5, 1), 1_000)])
    def test_one_variate_per_publication(self, params, horizon, monkeypatch):
        drawn = Counter()
        exponential = RandomSource.exponential

        def counting(self, rate, size=None):
            drawn[self.stream] += 1 if size is None else size
            return exponential(self, rate, size)

        monkeypatch.setattr(RandomSource, "exponential", counting)
        simulate(ModelParams(*params), SimConfig(seed=1, horizon_publications=horizon))
        assert drawn["writes"] == horizon


class _DenseReadSource(RandomSource):
    """A RandomSource whose read gaps are a quarter of their draws, so reads come 4x as often as lam says."""

    def exponential(self, rate, size=None):
        x = super().exponential(rate, size)
        return x / 4.0 if self.stream == "arrivals" else x


class TestReadDraws:
    """A slab draws its reads only as far as its end, and tops up a draw that falls short."""

    @pytest.mark.parametrize(
        "params,horizon",
        [((2, 5, 1), 10_000), ((0.5, 10, 1), 10_000), ((1, 3, 1), 10_000), ((1000, 1, 1), 20_000), ((3000, 10, 1), 20_000)],
    )
    def test_reads_drawn_to_the_horizon(self, params, horizon, monkeypatch):
        alpha, lam, _ = params
        drawn = Counter()
        exponential = RandomSource.exponential

        def counting(self, rate, size=None):
            drawn[self.stream] += 1 if size is None else size
            return exponential(self, rate, size)

        monkeypatch.setattr(RandomSource, "exponential", counting)
        simulate(ModelParams(*params), SimConfig(seed=1, horizon_publications=horizon))
        # the horizon's last publication, and the reads arriving before it, from the streams themselves
        end = np.cumsum(exponential(RandomSource(1, "writes"), alpha, horizon))[-1]
        arrivals = np.cumsum(exponential(RandomSource(1, "arrivals"), lam, drawn["arrivals"]))
        before = int(np.searchsorted(arrivals, end, side="left"))
        # each draw is sized to end a few standard deviations past its slab's end, and the reads
        # drawn past that end are the next slab's, so a run is left with one draw's overshoot
        slab = int(simulator._SLAB_EVENTS * alpha / (alpha + lam))
        margin = math.ceil(horizon / slab) * (8.0 * math.sqrt(lam * slab / alpha) + 1.0)
        assert drawn["services"] == drawn["arrivals"]
        assert before < drawn["arrivals"] <= before + margin

    @pytest.mark.parametrize("slab_events", [None, 1000])
    def test_short_draws_top_up(self, slab_events, monkeypatch):
        # at 4x the reads lam says, every sized draw falls short and the slab draws again
        params = (1, 1, 1)
        monkeypatch.setattr(simulator, "RandomSource", _DenseReadSource)
        if slab_events is not None:
            monkeypatch.setattr(simulator, "_SLAB_EVENTS", slab_events)
        draws = Counter()
        exponential = _DenseReadSource.exponential

        def counting(self, rate, size=None):
            draws[self.stream] += size is not None
            return exponential(self, rate, size)

        config = SimConfig(seed=5, horizon_publications=3_000, sample_n_distribution=True)
        monkeypatch.setattr(_DenseReadSource, "exponential", counting)
        got = simulate(ModelParams(*params), config)
        assert draws["arrivals"] >= 3 * draws["writes"]
        monkeypatch.setattr(_DenseReadSource, "exponential", exponential)
        want, _ = _event_loop(params, config)
        for field in ("mean_active_updates", "mean_age", "ci_half_width_n", "ci_half_width_age", "mean_busy_readers"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9, abs=0.0), field
        assert (got.publications, got.reads_served) == (want.publications, want.reads_served)
        assert list(got.n_histogram) == list(want.n_histogram)
        assert got.n_histogram == pytest.approx(want.n_histogram, rel=1e-9, abs=0.0)

    def test_read_heavy_peak_within_twelve_slab_arrays(self):
        # at 20 reads per publication a slab is almost all reads; numpy.random is imported
        # first, since its import is not the simulator's (5 slab arrays' worth, traced)
        RandomSource(0)
        tracemalloc.start()
        try:
            simulate(ModelParams(0.5, 10, 1), SimConfig(seed=1, horizon_publications=50_000, sample_n_distribution=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * simulator._SLAB_EVENTS

    @pytest.mark.parametrize("histogram", [False, True])
    def test_overflowing_read_load_is_a_config_error(self, histogram, monkeypatch):
        # lam/mu = 1e318 overflows; nothing is drawn, with or without the histogram
        drawn = Counter()
        exponential = RandomSource.exponential

        def counting(self, rate, size=None):
            drawn[self.stream] += 1
            return exponential(self, rate, size)

        monkeypatch.setattr(RandomSource, "exponential", counting)
        config = SimConfig(horizon_publications=1000, batch_count=10, sample_n_distribution=histogram)
        with pytest.raises(ConfigError, match="lambda/mu"):
            simulate(ModelParams(1, 1e308, 1e-10), config)
        with pytest.raises(ConfigError, match="lambda/mu"):
            simulate(ModelParams(1, 1e308, 1), config)  # lam/mu is finite, the histogram's cap is not
        assert not drawn


class _BoundedSource(RandomSource):
    """A RandomSource that counts its draws, over every stream, and raises past a few.

    A run that would never finish then fails at once instead of stalling the
    suite; a test resets `draws` with monkeypatch.
    """

    LIMIT = 20
    draws = 0

    def _count(self):
        type(self).draws += 1
        if self.draws > self.LIMIT:
            raise RuntimeError(f"more than {self.LIMIT} draws")

    def uniform(self, size=None):
        self._count()
        return super().uniform(size)

    def exponential(self, rate, size=None):
        self._count()
        return super().exponential(rate, size)

    def poisson(self, mean, size=None):
        self._count()
        return super().poisson(mean, size)


class TestUnfinishableRuns:
    """A run that could never finish is refused before its first draw."""

    # 1/alpha overflows at the smallest subnormal; at (1e-300, 1, 1) the run would draw 1e303
    # reads; at lam = 0 and alpha <= 1e-155 the age area of 1,000 publications would overflow
    @pytest.mark.parametrize("params", [
        (1e-300, 1, 1), (5e-324, 1, 1), (5e-324, 0, 1), (1e-155, 0, 1), (1e-160, 0, 1), (1e-300, 0, 1),
    ])
    def test_config_error_with_nothing_drawn(self, params, monkeypatch):
        monkeypatch.setattr(simulator, "RandomSource", _BoundedSource)
        monkeypatch.setattr(_BoundedSource, "draws", 0)
        with pytest.raises(ConfigError, match="alpha too small"):
            simulate(ModelParams(*params), SimConfig(horizon_publications=1000))
        assert _BoundedSource.draws == 0

    def test_small_alpha_below_the_bound_stays_finite(self):
        # 2 horizon/alpha^2 = 2e303 here; warnings are errors, so an overflow would raise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = simulate(ModelParams(1e-150, 0, 1), SimConfig(horizon_publications=1000))
        assert math.isfinite(st.mean_age) and math.isfinite(st.ci_half_width_age)
        assert st.mean_age == pytest.approx(2e150, rel=0.2)


# the shared-deadline E[N] = 1 + (alpha/mu) int_0^1 Ein(rho (1 - v^(mu/alpha))) dv at (alpha, lam, mu),
# as perfbench/judge.py's en_shared computes it
EN_SHARED = {(3000, 10, 1): 10.980054635479926, (100, 1, 1): 1.985276772316742}


def _z(values, target):
    """(mean - target) / standard error over independent values."""
    values = np.asarray(values, dtype=float)
    return (values.mean() - target) / (values.std(ddof=1) / math.sqrt(len(values)))


class TestStationaryStart:
    """The run starts from an exact draw of its equilibrium state."""

    @pytest.mark.parametrize("params", sorted(EN_SHARED))
    def test_sampler_matches_stationary_means(self, params):
        source = RandomSource(11, "initial")
        n, readers = [], []
        for _ in range(20_000):
            start, origin, arr, comp, open_grace, open_reads = simulator._stationary_state(ModelParams(*params), source)
            assert origin < start < 0.0
            assert np.all(np.diff(arr) >= 0.0) and np.all((start <= arr) & (arr < 0.0)) and np.all(comp > 0.0)
            assert len(open_grace) <= len(open_reads) and set(open_grace) <= set(open_reads)
            n.append(1 + len(open_grace))
            readers.append(len(arr) + len(open_reads))
        assert abs(_z(n, EN_SHARED[params])) < 4.0
        assert abs(_z(readers, params[1] / params[2])) < 4.0

    def test_sampler_cost_does_not_grow_with_alpha(self):
        # at alpha = 1e15 each read in service has seen about 1e15 publications since it
        # arrived, yet the draw takes one uniform per gap: every read holds its own stale copy
        source = RandomSource(12, "initial")
        for _ in range(200):
            _, _, arr, _, open_grace, open_reads = simulator._stationary_state(ModelParams(1e15, 10, 1), source)
            assert len(arr) == 0 and np.array_equal(np.sort(open_grace), np.sort(open_reads))

    @pytest.mark.parametrize("params", sorted(EN_SHARED))
    def test_unbiased_at_smallest_horizon(self, params):
        means = [
            simulate(ModelParams(*params), SimConfig(seed=seed, horizon_publications=1000)).mean_active_updates
            for seed in range(1, 401)
        ]
        assert abs(_z(means, EN_SHARED[params])) < 4.0


def _windows_by_loop(pub, reads):
    """Window of each sorted read by a walk along the publications: the last k with pub[k] <= read."""
    win, k = [], 0
    for a in reads:
        while k + 2 < len(pub) and pub[k + 1] <= a:
            k += 1
        win.append(k)
    return win


def _expand(u, first, n_reads):
    """The window of each read, from _read_windows' runs over n_reads sorted reads."""
    return np.repeat(u, np.diff(np.append(first, n_reads)))


class TestReadWindows:
    """_read_windows' runs match a plain loop on either side of its reads-per-publication switch."""

    # tied publications, so windows [1, 1) and [4, 4) are empty
    PUB = np.array([0.0, 1.0, 1.0, 1.0, 2.5, 4.0, 4.0, 4.5, 7.0, 8.0])

    # the per-publication search is taken above 2 len(PUB) = 20 reads
    @pytest.mark.parametrize("n_reads", [0, 1, 9, 10, 11, 20, 21, 200])
    def test_matches_loop(self, n_reads):
        rng = np.random.default_rng(n_reads)
        at_pubs = self.PUB[:-1][:n_reads]  # reads exactly at publications, tied ones included
        reads = np.sort(np.concatenate((at_pubs, rng.uniform(0.0, self.PUB[-1], n_reads - len(at_pubs)))))
        u, first = simulator._read_windows(self.PUB, reads)
        assert _expand(u, first, len(reads)).tolist() == _windows_by_loop(self.PUB, reads)

    def test_random_slabs(self):
        rng = np.random.default_rng(2026)
        above = []
        for _ in range(400):
            pub = np.sort(rng.integers(0, 12, int(rng.integers(2, 20)))).astype(float)  # integer times tie often
            if pub[-1] == pub[0]:
                continue
            n = int(rng.integers(0, 5 * len(pub)))
            # half the reads on the integer grid, so many sit exactly on a publication
            reads = np.concatenate((rng.integers(pub[0], pub[-1], n // 2), rng.uniform(pub[0], pub[-1], n - n // 2)))
            reads = np.sort(reads[reads < pub[-1]])
            above.append(len(reads) > len(pub))
            u, first = simulator._read_windows(pub, reads)
            assert _expand(u, first, len(reads)).tolist() == _windows_by_loop(pub, reads)
        assert 50 < sum(above) < len(above) - 50

    def test_grace_ends_from_runs(self):
        # simulate's grace ends, one maximum per run, against np.maximum.at over every read's window
        rng = np.random.default_rng(24)
        above = []
        for i in range(1000):
            pub = np.sort(rng.integers(0, 40, int(rng.integers(2, 30)))).astype(float)
            if pub[-1] == pub[0]:
                continue
            # every other slab above 1 read per publication, most of those above the switch at 2
            n = int(rng.integers(len(pub) + 1, 6 * len(pub))) if i % 2 else int(rng.integers(0, len(pub) + 1))
            reads = np.concatenate((rng.integers(pub[0], pub[-1], n // 2), rng.uniform(pub[0], pub[-1], n - n // 2)))
            reads = np.sort(reads[reads < pub[-1]])
            done = reads + np.ceil(rng.exponential(4.0, len(reads)) * 4.0) / 4.0  # ties with publications too
            above.append(len(reads) > len(pub))
            u, first = simulator._read_windows(pub, reads)
            assert np.all(np.diff(first) > 0) and np.all(np.diff(u) > 0)
            assert len(reads) == 0 or first[0] == 0
            want = pub[1:].copy()
            np.maximum.at(want, _windows_by_loop(pub, reads), done)
            got = pub[1:].copy()
            got[u] = np.maximum(pub[u + 1], np.maximum.reduceat(done, first))
            assert np.array_equal(got, want)
        assert sum(above) >= 400 and len(above) - sum(above) >= 400


def _age_reference(params, config):
    """(mean_age, ci_half_width_age) from each sawtooth window's area, one math.fsum per batch.

    The copy current at 0 was published at -E1 and the one before it at
    -(E1 + E2), E1 and E2 being the first two "initial" draws; the later
    publish times are the "writes" draws cumsummed from 0, as the simulator
    takes them. Window k runs from pub[k] to pub[k+1], with the age counted
    from pub[k-1] (from -(E1 + E2) for k = 0), clipped at 0.
    """
    alpha = params[0]
    horizon, nb = config.horizon_publications, config.batch_count
    e1, e2 = RandomSource(config.seed, "initial").exponential(alpha, 2)
    pub = np.cumsum(np.concatenate(([0.0], RandomSource(config.seed, "writes").exponential(alpha, horizon))))
    pub[0] = -e1
    boundaries = np.array([((i + 1) * horizon) // nb for i in range(nb)])
    a, b = np.maximum(pub[:-1], 0.0), pub[1:]
    born = np.concatenate(([-(e1 + e2)], pub[:-2]))
    area = ((b - a) * ((a + b) / 2 - born)).tolist()
    batch = np.searchsorted(boundaries, np.arange(horizon), side="right")
    sums = [math.fsum(area[m] for m in np.flatnonzero(batch == i)) for i in range(nb)]
    tau = np.concatenate(([0.0], pub[boundaries]))
    means = np.array(sums) / np.diff(tau)
    ci = simulator._t975(nb - 1) * means.std(ddof=1) / math.sqrt(nb)
    return math.fsum(sums) / tau[-1], ci


class TestAgeSums:
    """The age area and its batch areas match a direct sum over the sawtooth windows."""

    @pytest.mark.parametrize(
        "params,kw,slab_events",
        [
            ((3, 2, 1), dict(seed=5, horizon_publications=5_000, batch_count=10), None),
            # all 20 boundaries fall inside the one slab (of up to 21,845 publications)
            ((1, 0.5, 1), dict(seed=6, horizon_publications=10_000, batch_count=20), None),
            # slabs of 250 * 2/5 = 100 publications from time 0: every boundary is a slab's last publication
            ((2, 3, 1), dict(seed=7, horizon_publications=2_000, batch_count=20), 250),
            # 5,000-window batches in slabs of 32,735 and 17,265 publications: dot products on every slab
            ((1000, 1, 1), dict(seed=8, horizon_publications=50_000, batch_count=10), None),
        ],
    )
    def test_matches_fsum_over_windows(self, params, kw, slab_events, monkeypatch):
        if slab_events is not None:
            monkeypatch.setattr(simulator, "_SLAB_EVENTS", slab_events)
        config = SimConfig(**kw)
        stats = simulate(ModelParams(*params), config)
        mean_age, ci_age = _age_reference(params, config)
        assert stats.mean_age == pytest.approx(mean_age, rel=1e-12, abs=0.0)
        # the simulator's batch areas are differences of running totals, which lose a few digits
        assert stats.ci_half_width_age == pytest.approx(ci_age, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize(
        "n,cuts",
        [
            (32_735, [1, 2, 8_193, 8_194, 30_000]),  # one-window segments, and pieces cut at 8,192 windows
            (32_735, []),  # one segment of four pieces
            (20_000, list(range(1_000, 20_000, 1_000))),
            (3, [1, 2]),
        ],
    )
    def test_dot_products_match_window_sums(self, n, cuts):
        x = np.random.default_rng(n + len(cuts)).exponential(1e-3, n)
        cuts = np.array(cuts, dtype=np.int64)
        got, want = simulator._age_dots(x, 0.25, cuts), simulator._age_windows(x, 0.25, cuts)
        assert got.shape == want.shape == (len(cuts) + 1,)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


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
    def test_histogram_mean_is_mean_active_updates(self, params, seed):
        stats = simulate(
            ModelParams(*params), SimConfig(seed=seed, horizon_publications=20_000, sample_n_distribution=True)
        )
        hist = stats.n_histogram
        assert max(hist) < 1 + math.ceil(10.0 * params[1] / params[2]) + 20  # no mass lumped into the cap
        assert math.fsum(hist.values()) == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert math.fsum(n * p for n, p in hist.items()) == pytest.approx(
            stats.mean_active_updates, rel=1e-12, abs=0.0
        )
        if params[1] == 0:
            assert stats.mean_active_updates == 1.0 and hist == {1: 1.0}


class TestHistogramGrowth:
    """The histogram grows to the highest level held for a positive time, and is not allocated up front."""

    def test_no_levels_allocated_before_the_first_draw(self):
        # at rho = 1e5 the cap is 1,000,022 levels (7.6 MiB); the stationary draw is about 5 MiB either way
        RandomSource(0)  # numpy.random's import is not the simulator's

        def peak(histogram):
            tracemalloc.start()
            try:
                simulator._Run(ModelParams(1, 1e5, 1), 1, histogram)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(True) <= peak(False) + 64 * 1024

    @pytest.mark.parametrize("seed", [0, 21])
    def test_ends_at_the_highest_level_held(self, seed, monkeypatch):
        # on the 1/8 grid a start and a stop fall at one instant, so a slab can pass through a level
        # for no time; at these seeds such a level lies above every level held. Whole or split in
        # two, the run gives the same levels.
        monkeypatch.setattr(simulator, "RandomSource", _GridSource)
        monkeypatch.setattr(simulator, "_SLAB_EVENTS", 64)
        boundaries = np.array([2000])
        one, two = (simulator._Run(ModelParams(1, 2, 1), seed, histogram=True) for _ in range(2))
        one.advance(2000, boundaries)
        two.advance(1000, boundaries)
        two.advance(1000, boundaries)
        assert 0.0 < one.hist[-1] and len(one.hist) < 1 + math.ceil(10.0 * 2) + 21
        assert one.hist.shape == two.hist.shape
        np.testing.assert_allclose(two.hist, one.hist, rtol=1e-12, atol=0.0)


class TestNDistribution:
    def test_requires_flag(self):
        # without sample_n_distribution no histogram is kept
        stats = simulate(ModelParams(1, 1, 1), SimConfig(seed=1, horizon_publications=1000))
        assert stats.n_histogram is None

    def test_point_mass_without_readers(self):
        dist = simulate(
            ModelParams(1, 0, 1), SimConfig(seed=1, horizon_publications=2000, sample_n_distribution=True)
        ).n_histogram
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
