"""Simulation of the memoryless RCU update/read process, as an array pass.

A writer publishes copies at exponential(alpha) intervals; readers arrive
Poisson(lambda) and hold a lock on the then-current copy for an
exponential(mu) time. A replaced copy with no outstanding locks is
reclaimed immediately; otherwise it stays active until its last lock is
released. So copy i occupies memory on [P_i, G_i), where P_i is its publish
time and G_i = max(P_{i+1}, the last completion among its readers), and
N(t) is the number of those intervals that cover t. The [P_i, P_{i+1})
parts tile the time axis, so N(t) = 1 + #{i : P_{i+1} <= t < G_i}: the
current copy plus the stale copies whose readers still hold locks, and only
copies with a late reader have a non-empty extension [P_{i+1}, G_i). Every
statistic is an integral over these extensions, the readers' [arrival,
completion) intervals and the sawtooth age, clipped to [warmup, horizon].
The footprint area needs no sort; only the optional histogram merges the
extensions' starts and sorted stops. Publications are handled in slabs of
about 16k events, carrying only the intervals still open from one slab to
the next, so memory does not grow with the horizon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DomainError, ModelParams, RandomSource, validate

# publications plus read arrivals handled per array pass
_SLAB_EVENTS = 16384


class ConfigError(ValueError):
    """Invalid simulation configuration."""


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: seed, warmup, measurement horizon, CI batching.

    warmup_time=None picks max(100/alpha, 100/mu, 100/lambda) at run time.
    The horizon is counted in publications after warmup so sweeps over
    alpha have comparable statistical power.
    """

    seed: int = 1
    warmup_time: float | None = None
    horizon_publications: int = 100_000
    batch_count: int = 20
    sample_n_distribution: bool = False
    record_updates: int = 0  # keep lifecycle records for this many post-warmup updates

    def __post_init__(self):
        if self.horizon_publications < 1000:
            raise ConfigError(f"horizon_publications must be >= 1000, got {self.horizon_publications}")
        if self.batch_count < 10:
            raise ConfigError(f"batch_count must be >= 10, got {self.batch_count}")
        if self.batch_count > self.horizon_publications:
            raise ConfigError(
                f"batch_count must be <= horizon_publications ({self.horizon_publications}), got {self.batch_count}"
            )
        if self.warmup_time is not None and self.warmup_time < 0:
            raise ConfigError(f"warmup_time must be >= 0, got {self.warmup_time}")


@dataclass(frozen=True)
class UpdateRecord:
    """Lifecycle of one published copy, for trace-level inspection."""

    index: int
    publish_time: float
    replace_time: float | None
    residual_readers: int
    grace_end_time: float | None


@dataclass(frozen=True)
class SimStats:
    mean_active_updates: float
    mean_age: float
    ci_half_width_n: float
    ci_half_width_age: float
    publications: int
    reads_served: int
    mean_busy_readers: float
    n_histogram: dict[int, float] | None
    update_records: tuple[UpdateRecord, ...] = ()


def _default_warmup(params: ModelParams) -> float:
    w = max(100.0 / params.alpha, 100.0 / params.mu)
    if params.lam > 0:
        w = max(w, 100.0 / params.lam)
    return w


# the standard normal 0.975 quantile
_Z975 = 1.959963984540054


def _log_gamma_half_ratio(a: float) -> float:
    """ln(Gamma(a + 1/2) / Gamma(a)), without lgamma's cancellation at large a."""
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    # difference of Stirling's series (z - 1/2) ln z - z + sum_j B_2j / (2j (2j - 1) z^(2j - 1))
    # at z = a + 1/2 and z = a; the first terms omitted differ by under 4e-16 from a = 20 on
    def s(z):
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * z * z)) / (z * z)) / (z * z)) / z

    return a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a) + s(a + 0.5) - s(a)


def _t975(nu: int) -> float:
    """t_{0.975, nu}, the Student-t quantile, by Newton's method on the upper tail.

    With a = nu/2, y = t^2/nu and x = 1/(1 + y), P(T > t) = I_x(a, 1/2)/2,
    and the continued fraction of DLMF 8.17.22 gives I_x(a, 1/2) =
    x^a (1 - x)^{1/2} h / (a B(a, 1/2)); it converges fast where
    x < (a + 1)/(a + 5/2), which holds for every t >= sqrt(3). Divided by
    the density (1 + y)^{-(a + 1/2)} / (sqrt(nu) B(a, 1/2)), the tail is
    t h / nu, so B enters only the density. The start z + (z^3 + z)/(4 nu)
    is below the root and the tail is convex, so the iterates rise to it.
    """
    a = 0.5 * nu
    log_b = 0.5 * math.log(math.pi) - _log_gamma_half_ratio(a)  # ln B(a, 1/2)
    t = _Z975 + (_Z975**3 + _Z975) / (4.0 * nu)
    for _ in range(50):
        y = t * t / nu
        x = 1.0 / (1.0 + y)
        # modified Lentz evaluation of 1/(1 + d_1/(1 + d_2/(1 + ...)))
        c, d = 1.0, 1.0 / (1.0 - (a + 0.5) * x / (a + 1.0))
        h = d
        for m in range(1, 10_000):
            for num in (
                m * (0.5 - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                -(a + m) * (a + 0.5 + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
            ):
                d = 1.0 / (1.0 + num * d)
                c = 1.0 + num / c
                h *= d * c
            if abs(d * c - 1.0) <= 1e-16:
                break
        density = math.exp(-log_b - (a + 0.5) * math.log1p(y)) / math.sqrt(nu)
        step = t * h / nu - 0.025 / density
        t += step
        if abs(step) <= 1e-9 * t:  # Newton converges quadratically: the error left is ~step^2
            break
    return t


def _batch_ci(batch_sums: np.ndarray, batch_durs: np.ndarray, tq: float) -> float:
    """Half-width tq * s/sqrt(b) over the b batch means, with tq = _t975(b - 1)."""
    means = batch_sums / batch_durs
    return float(tq * means.std(ddof=1) / math.sqrt(len(means)))


def simulate(params: ModelParams, config: SimConfig) -> SimStats:
    """Simulate until the horizon and return time-averaged statistics.

    Deterministic: identical (params, config) give bit-identical results.
    Each stream ("writes", "arrivals", "services") is drawn in order, so
    the sample path does not depend on how the run is cut into slabs. At
    equal times a publication comes before a read arrival, and a read
    arrival before a completion.
    """
    validate(params)
    alpha, lam, mu = params.alpha, params.lam, params.mu
    warmup = config.warmup_time if config.warmup_time is not None else _default_warmup(params)

    writes = RandomSource(config.seed, "writes")
    arrivals = RandomSource(config.seed, "arrivals")
    services = RandomSource(config.seed, "services")
    slab = max(1, int(_SLAB_EVENTS * alpha / (alpha + lam)))
    read_block = max(1, _SLAB_EVENTS - slab)

    horizon = config.horizon_publications
    nb = config.batch_count
    boundaries = np.array([((i + 1) * horizon) // nb for i in range(nb)])

    want_hist = config.sample_n_distribution
    hist_cap = 1 + math.ceil(10.0 * lam / mu) + 20
    hist = np.zeros(hist_cap + 1)

    first = 0  # index of the copy current at the slab's start
    origin = start = 0.0  # publish times of the copy before it and of it
    open_grace = np.empty(0)  # grace ends after `start` of earlier copies
    open_reads = np.empty(0)  # completions after `start` of earlier reads
    arr = comp = np.empty(0)  # reads drawn that arrive at or after `start`
    last_arr = 0.0
    pubs = 0
    reads_served = 0
    area_stale = area_age = area_reads = 0.0  # area_stale integrates N(t) - 1
    snap_stale: list[float] = []
    snap_age: list[float] = []
    snap_t: list[float] = []
    rec_left = config.record_updates
    recs: list[tuple[np.ndarray, ...]] = []

    done = False
    while not done:
        # pub[k] is the publish time of copy first+k; cumsum adds left to
        # right, so these are the times a one-draw-at-a-time loop reaches
        pub = np.cumsum(np.concatenate(([start], writes.exponential(alpha, slab))))
        k0 = max(1, int(np.searchsorted(pub, warmup, side="right")))  # first post-warmup publication
        if pubs + len(pub) - k0 >= horizon:
            pub = pub[: k0 + horizon - pubs]
            done = True
        n_new = len(pub) - k0
        end = pub[-1]
        stop = end if done else math.inf

        if lam > 0:
            while len(arr) == 0 or arr[-1] < end:
                new = np.cumsum(np.concatenate(([last_arr], arrivals.exponential(lam, read_block))))[1:]
                last_arr = float(new[-1])
                arr = np.concatenate((arr, new))
                comp = np.concatenate((comp, new + services.exponential(mu, read_block)))
        cut = int(np.searchsorted(arr, end, side="left"))
        a_t, c_t = arr[:cut], comp[:cut]
        arr, comp = arr[cut:], comp[cut:]
        win = np.searchsorted(pub, a_t, side="right") - 1
        grace = pub[1:].copy()
        np.maximum.at(grace, win, c_t)

        g_end = np.concatenate((open_grace, grace))
        r_end = np.concatenate((open_reads, c_t))
        lo = max(start, warmup)
        if end > lo:
            # N(t) - 1 counts the extensions: copy first+k's on [pub[k+1], grace[k]),
            # and a copy carried from an earlier slab's on [start, its grace end)
            ext = grace > pub[1:]
            xs = np.maximum(np.concatenate((np.full(len(open_grace), start), pub[1:][ext])), lo)
            xe = np.minimum(np.concatenate((open_grace, grace[ext])), end)
            held = xe > xs
            xs, xe = xs[held], xe[held]
            if want_hist:
                # xs is in publish order, so the stable sort merges two sorted runs;
                # at equal times a start comes before a stop
                times = np.concatenate((xs, np.sort(xe)))
                order = np.argsort(times, kind="stable")
                level = np.cumsum(np.where(order < len(xs), 1, -1)) + 1
                dur = np.diff(np.concatenate(([lo], times[order], [end])))
                hist += np.bincount(
                    np.minimum(np.concatenate(([1], level)), hist_cap), weights=dur, minlength=hist_cap + 1
                )

            # sawtooth age: while copy first+k is current, its age runs from pub[k-1]
            w0 = np.maximum(pub[:-1], lo)
            dt = np.maximum(pub[1:] - w0, 0.0)
            born = np.concatenate(([origin], pub[:-2]))
            cum_age = np.cumsum((w0 - born) * dt + 0.5 * dt * dt)

            r_start = np.maximum(np.concatenate((np.full(len(open_reads), start), a_t)), lo)
            area_reads += float(np.maximum(np.minimum(r_end, end) - r_start, 0.0).sum())
            ended = r_end[r_end <= end]
            reads_served += int(np.count_nonzero((ended > warmup) & (ended < stop)))

            # batch boundaries are publication times, so both areas are exact there
            j = k0 - 1 - pubs + boundaries[(boundaries > pubs) & (boundaries <= pubs + n_new)]
            tau = pub[j]
            snap_stale.extend(area_stale + float(np.maximum(np.minimum(xe, t) - xs, 0.0).sum()) for t in tau.tolist())
            snap_age.extend((area_age + cum_age[j - 1]).tolist())
            snap_t.extend(tau.tolist())
            area_stale += float((xe - xs).sum())
            area_age += float(cum_age[-1])

        if rec_left > 0:
            ks = np.flatnonzero(pub[:-1] > warmup)[:rec_left]
            if len(ks):
                late = c_t >= pub[win + 1]
                residual = np.bincount(win[late], minlength=len(pub) - 1)
                recs.append((first + ks, pub[ks], pub[ks + 1], residual[ks], grace[ks]))
                rec_left -= len(ks)

        open_grace = g_end[g_end > end]
        open_reads = r_end[r_end > end]
        pubs += n_new
        first += len(pub) - 1
        origin, start = float(pub[-2]), float(end)

    total_t = start - warmup
    starts_stale = np.concatenate(([0.0], snap_stale[:-1]))
    starts_age = np.concatenate(([0.0], snap_age[:-1]))
    starts_t = np.concatenate(([warmup], snap_t[:-1]))
    durs = np.asarray(snap_t) - starts_t
    tq = _t975(nb - 1)
    ci_n = _batch_ci(np.asarray(snap_stale) - starts_stale, durs, tq)
    ci_age = _batch_ci(np.asarray(snap_age) - starts_age, durs, tq)

    histogram = None
    if want_hist:
        histogram = {n: float(w) / total_t for n, w in enumerate(hist) if w > 0}

    # a copy still locked at the horizon has no grace end yet
    records = [
        UpdateRecord(int(i), float(p), float(r), int(n), float(g) if n == 0 or g < start else None)
        for cols in recs
        for i, p, r, n, g in zip(*cols)
    ]
    if rec_left > 0:
        records.append(UpdateRecord(first, start, None, 0, None))

    return SimStats(
        mean_active_updates=1.0 + area_stale / total_t,
        mean_age=area_age / total_t,
        ci_half_width_n=ci_n,
        ci_half_width_age=ci_age,
        publications=pubs,
        reads_served=reads_served,
        mean_busy_readers=area_reads / total_t,
        n_histogram=histogram,
        update_records=tuple(records),
    )


def simulate_n_distribution(params: ModelParams, config: SimConfig) -> dict[int, float]:
    """Time-weighted empirical distribution of N (probabilities summing to 1)."""
    if not config.sample_n_distribution:
        raise ConfigError("sample_n_distribution must be enabled")
    stats_ = simulate(params, config)
    assert stats_.n_histogram is not None
    return stats_.n_histogram


def estimate_age_from_polygons(write_times: Sequence[float]) -> float:
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
