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
completion) intervals and the sawtooth age, clipped to the measured span.
That span starts at time 0 from a draw of the stationary state (the
readers in service, the stale copies they lock and the last two
publications), so no initial transient is left to discard, and it ends at
the horizon's last publication.
A slab's sorted reads fall into runs, one per window [P_k, P_{k+1}) that
holds any, found by one binary search per read or, where the slab has
more reads than publications, by one search per publication among the
reads; a copy's grace end is the largest completion of its run, so
windows without reads take no grace work.
The footprint area needs no sort; only the optional histogram merges the
extensions' starts and sorted stops. Publications are handled in slabs of
about 16k events, carrying only the intervals still open from one slab to
the next, so memory does not grow with the horizon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, RandomSource, validate

# publications plus read arrivals handled per array pass
_SLAB_EVENTS = 16384


class ConfigError(ValueError):
    """Invalid simulation configuration."""


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: seed, measurement horizon, CI batching.

    The run starts in its stationary state and measures from time 0. The
    horizon is counted in publications after time 0, so sweeps over alpha
    have comparable statistical power.
    """

    seed: int = 1
    horizon_publications: int = 100_000
    batch_count: int = 20
    sample_n_distribution: bool = False
    record_updates: int = 0  # keep lifecycle records for this many updates published after time 0

    def __post_init__(self):
        for name in ("horizon_publications", "batch_count", "record_updates"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.horizon_publications < 1000:
            raise ConfigError(f"horizon_publications must be >= 1000, got {self.horizon_publications}")
        if self.batch_count < 10:
            raise ConfigError(f"batch_count must be >= 10, got {self.batch_count}")
        if self.batch_count > self.horizon_publications:
            raise ConfigError(
                f"batch_count must be <= horizon_publications ({self.horizon_publications}), got {self.batch_count}"
            )
        if self.record_updates < 0:
            raise ConfigError(f"record_updates must be >= 0, got {self.record_updates}")


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


def _read_windows(pub: np.ndarray, a_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The windows that hold reads, and the index of each one's first read.

    Returns (u, first), both increasing: window u[i], [pub[u[i]], pub[u[i] + 1]),
    holds the reads a_t[first[i]:first[i + 1]] (the last one's run ends at
    len(a_t)), and every other window holds none. pub and a_t are sorted,
    and every read lies in [pub[0], pub[-1]); of tied publications the last one
    holds the window, so a read at a publication's time sees that
    publication. Both branches give the same runs; the switch between them
    is explained in simulate.
    """
    if len(a_t) > len(pub):
        idx = np.searchsorted(a_t, pub, side="left")
        u = np.flatnonzero(np.diff(idx))
        return u, idx[u]
    win = np.searchsorted(pub, a_t, side="right") - 1
    first = np.flatnonzero(np.diff(win, prepend=-1))
    return win[first], first


def _stationary_state(params: ModelParams, source: RandomSource) -> tuple:
    """A draw of the process's state at time 0, in equilibrium.

    Returns (start, origin, arr, comp, open_grace, open_reads): the publish
    times of the current copy and of the one before it, the arrivals (in
    order) and completions of the reads in service on the current copy,
    the grace ends of the stale copies still locked, and every completion
    of their reads, as simulate carries them from one slab to the next.

    The publications before 0 are a Poisson(alpha) process run backwards:
    the last two are at -E1 and -(E1 + E2), with E1, E2 ~ Exp(alpha). The
    reads in service are the M/M/inf queue's stationary state (Kleinrock,
    Queueing Systems vol. 1): Poisson(lam/mu) of them, each with an Exp(mu)
    age and an independent Exp(mu) residual hold. A read holds the copy
    current at its arrival. Two reads adjacent in arrival order hold
    different copies exactly when a publication falls between them: the
    one at -(E1 + E2), or one of the epochs before it, of which there is
    at least one with probability 1 - exp(-alpha * gap). So one uniform per
    gap stands in for walking every epoch back past the oldest read (about
    alpha ln(rho) / mu of them), and the cost does not grow with alpha.
    Draws come in the order E1 and E2, the read count, the ages, the
    residual holds, the gap uniforms.
    """
    alpha = params.alpha
    e1, e2 = source.exponential(alpha, 2).tolist()
    start, origin = -e1, -(e1 + e2)
    n = int(source.poisson(params.lam / params.mu))
    arr = -source.exponential(params.mu, n)
    hold = source.exponential(params.mu, n)
    order = np.argsort(arr)
    arr, hold = arr[order], hold[order]
    cur = int(np.searchsorted(arr, start, side="left"))  # reads from `start` on hold the current copy
    stale = hold[:cur]
    if cur == 0:
        return start, origin, arr, hold, stale, stale
    prev, nxt = arr[: cur - 1], arr[1:cur]
    u = source.uniform(cur - 1)
    # an epoch in (prev, nxt]: the one at origin, or one of the Poisson epochs before it
    gap = np.maximum(np.minimum(nxt, origin) - prev, 0.0)
    split = ((prev < origin) & (origin <= nxt)) | (u < -np.expm1(-alpha * gap))
    open_grace = np.maximum.reduceat(stale, np.flatnonzero(np.concatenate(([True], split))))
    return start, origin, arr[cur:], hold[cur:], open_grace, stale


def simulate(params: ModelParams, config: SimConfig) -> SimStats:
    """Simulate until the horizon and return time-averaged statistics.

    Deterministic: identical (params, config) give bit-identical results.
    Each stream ("writes", "arrivals", "services") is drawn in order, so
    the sample path does not depend on how the run is cut into slabs. At
    equal times a publication comes before a read arrival, and a read
    arrival before a completion.

    The state at time 0 is _stationary_state's draw from its own stream
    ("initial"), so the other three keep their draws: the publications
    after 0 are the "writes" draws summed from 0, one per publication
    measured, and the reads arriving after 0 are the "arrivals" draws. The
    first slab's window opens at the current copy's publication, -E1, and
    is measured from 0; its reads begin with those in service on that copy.
    The stale copies and their reads enter as if carried from an earlier
    slab, and every later slab starts at the previous one's end.

    Reads go to windows by _read_windows, as runs of the sorted reads: with
    more reads than publications in a slab it finds the publications among
    the reads (P log R + P) instead of searching for every read (R log P +
    R). Neither branch makes an array per read, so the two cost about the
    same near 1 read per publication, and the switch sits there: forced on
    every slab, the per-publication search made a run take 1.12-1.15x as
    long at 0.5 reads per publication, 0.96-0.97x at 1, 0.90-0.92x at 2,
    0.85-0.90x at 2.5, 0.74-0.77x at 10 and 0.67-0.71x at 20 (horizon 100k
    publications, 2 vCPUs; the ratio of medians over 15 interleaved runs,
    three times). Both give the same runs.

    Only a copy with a late reader outlives its replacement, so only those
    carry a grace end into the footprint and into the next slab; it is the
    largest completion of the copy's run of reads (np.maximum.reduceat), so
    windows without reads take no grace work. The publication times are
    the running sum of the draws, written into one buffer made per run. The
    age area of each sawtooth window is built in place in one more such
    buffer, (0.5 dt + age) dt with dt in the spent draws, and summed per
    batch by np.add.reduceat at the slab's batch boundaries (pairwise, as
    numpy sums); the running total adds those few sums.
    """
    validate(params)
    alpha, lam, mu = params.alpha, params.lam, params.mu

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

    # start and origin: the publish times of the copy current at the slab's start and of
    # the one before it; open_grace and open_reads: the grace ends of earlier copies and
    # the completions of earlier reads after `start`; arr and comp: the reads drawn that
    # arrive at or after `start`
    start, origin, arr, comp, open_grace, open_reads = _stationary_state(params, RandomSource(config.seed, "initial"))
    end = last_arr = 0.0  # the publications and the reads after 0 are summed from 0
    pubs = 0  # publications after 0 so far, and the index of the copy current at the slab's start
    reads_served = 0
    area_stale = area_age = area_reads = 0.0  # area_stale integrates N(t) - 1
    snap_stale: list[float] = []
    snap_age: list[float] = []
    snap_t: list[float] = []
    rec_left = config.record_updates
    recs: list[tuple[np.ndarray, ...]] = []

    # a slab's publication times and sawtooth window areas, in buffers every slab reuses
    pub_buf = np.empty(min(slab, horizon) + 1)
    area_buf = np.empty(len(pub_buf) - 1)
    done = False
    while not done:
        n_new = min(slab, horizon - pubs)
        done = pubs + n_new == horizon
        # pub[k] is the publish time of copy pubs+k; cumsum adds left to
        # right, so these are the times a one-draw-at-a-time loop reaches
        x = writes.exponential(alpha, n_new)
        x[0] += end
        pub = pub_buf[: n_new + 1]
        np.cumsum(x, out=pub[1:])
        pub[0] = start  # the first slab's copy was published before 0
        end = pub[-1]

        if lam > 0:
            while len(arr) == 0 or arr[-1] < end:
                new = np.cumsum(np.concatenate(([last_arr], arrivals.exponential(lam, read_block))))[1:]
                last_arr = float(new[-1])
                arr = np.concatenate((arr, new))
                comp = np.concatenate((comp, new + services.exponential(mu, read_block)))
        cut = int(np.searchsorted(arr, end, side="left"))
        a_t, c_t = arr[:cut], comp[:cut]
        arr, comp = arr[cut:], comp[cut:]
        u, first = _read_windows(pub, a_t)
        # only a copy with a late reader outlives its replacement, which is at or before `end`
        last_done = np.maximum.reduceat(c_t, first)
        replaced = pub[u + 1]
        ext = last_done > replaced

        g_end = np.concatenate((open_grace, last_done[ext]))
        r_end = np.concatenate((open_reads, c_t))
        lo = max(start, 0.0)  # the measurement starts at 0, inside the first slab's window
        # N(t) - 1 counts the extensions: copy pubs+k's on [pub[k+1], its grace end),
        # and a copy carried from an earlier slab's on [start, its grace end)
        xs = np.maximum(np.concatenate((np.full(len(open_grace), start), replaced[ext])), lo)
        xe = np.minimum(g_end, end)
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

        # sawtooth age: while copy pubs+k is current, its age runs from pub[k-1] (from
        # origin for k = 0), so each window after the first starts at the previous one's
        # length; the area (0.5 dt + age) dt is built in place, dt in the spent draws
        dt = np.subtract(pub[1:], pub[:-1], out=x)
        area = np.multiply(dt, 0.5, out=area_buf[:n_new])
        area[1:] += dt[:-1]
        dt[0] = pub[1] - lo
        area[0] = 0.5 * dt[0] + (lo - origin)
        area *= dt

        r_start = np.maximum(np.concatenate((np.full(len(open_reads), start), a_t)), lo)
        area_reads += float(np.maximum(np.minimum(r_end, end) - r_start, 0.0).sum())
        # a read is served when it completes; at the horizon's end it is still held
        reads_served += int(np.count_nonzero(r_end < end if done else r_end <= end))

        # batch boundaries are publication times, so both areas are exact there; a
        # boundary's offset ends a segment of age windows, and one at the slab's
        # last publication ends an empty last segment, which reduceat rejects
        off = boundaries[(boundaries > pubs) & (boundaries <= pubs + n_new)] - pubs
        tau = pub[off]
        snap_stale.extend(area_stale + float(np.maximum(np.minimum(xe, t) - xs, 0.0).sum()) for t in tau.tolist())
        cum_age = np.cumsum(np.add.reduceat(area, np.concatenate(([0], off[off < len(area)]))))
        snap_age.extend((area_age + cum_age[: len(off)]).tolist())
        snap_t.extend(tau.tolist())
        area_stale += float((xe - xs).sum())
        area_age += float(cum_age[-1])

        if rec_left > 0:
            ks = np.arange(int(pubs == 0), n_new)[:rec_left]  # the copy current at 0 was published before it
            # records alone need every read's window and every copy's grace end
            win = np.repeat(u, np.diff(np.append(first, len(a_t))))
            grace = pub[1:].copy()
            grace[u[ext]] = last_done[ext]
            late = c_t >= pub[win + 1]
            residual = np.bincount(win[late], minlength=n_new)
            recs.append((pubs + ks, pub[ks], pub[ks + 1], residual[ks], grace[ks]))
            rec_left -= len(ks)

        open_grace = g_end[g_end > end]
        open_reads = r_end[r_end > end]
        pubs += n_new
        origin, start = float(pub[-2]), float(end)

    total_t = start  # the measurement runs from 0 to the last publication
    starts_stale = np.concatenate(([0.0], snap_stale[:-1]))
    starts_age = np.concatenate(([0.0], snap_age[:-1]))
    starts_t = np.concatenate(([0.0], snap_t[:-1]))
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
        records.append(UpdateRecord(pubs, start, None, 0, None))

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
