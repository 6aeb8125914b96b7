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
more than twice as many reads as publications, by one search per
publication among the reads; a copy's grace end is the largest
completion of its run, so windows without reads take no grace work.
The footprint area needs no sort; only the optional histogram merges the
extensions' starts and sorted stops. Publications are handled in slabs of
about 16k events; a slab draws its reads only as far as its end, summed and
completed in place, and carries only the intervals still open and the reads
drawn past its end to the next, so memory does not grow with the horizon.
That carried state and the running totals are one _Run, whose advance
continues the run by any number of publications; simulate makes one call.
"""
from __future__ import annotations

import bisect
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
    """One simulation run: seed, measurement horizon, CI batching, footprint histogram.

    The run starts in its stationary state and measures from time 0. The
    horizon is counted in publications after time 0, so sweeps over alpha
    have comparable statistical power.
    """

    seed: int = 1
    horizon_publications: int = 100_000
    batch_count: int = 20
    sample_n_distribution: bool = False

    def __post_init__(self):
        for name in ("horizon_publications", "batch_count"):
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


# the standard normal 0.975 quantile
_Z975 = 1.959963984540054


def _t975(nu: int) -> float:
    """t_{0.975, nu}, the Student-t quantile, by the secant method on P(|T| <= t) = 0.95.

    For an integer nu, with c = nu/(nu + t^2) and s = t/sqrt(nu + t^2),
    P(|T| <= t) is a finite sum (Abramowitz & Stegun 26.7.3-4):
    s (1 + c/2 + (1 3)/(2 4) c^2 + ...) for even nu, and
    (2/pi)(asin s + s sqrt(c) (1 + 2c/3 + (2 4)/(3 5) c^2 + ...)) for odd
    nu, each to the power c^(floor(nu/2) - 1); the terms are one cumprod.
    The secant starts from z and z + (z^3 + z)/(4 nu), where z is the
    normal quantile. The coverage is resolved to about 1e-16, so t only to
    a few ulps: the iteration stops at a step under 1e-14 t, or where two
    iterates' coverages are equal.
    """
    odd = nu % 2
    j = np.arange(1, nu // 2)
    ratios = (2 * j - 1 + odd) / (2 * j + odd)

    def coverage(t):
        c, s = nu / (nu + t * t), t / math.sqrt(nu + t * t)
        terms = 1.0 + float(np.cumprod(ratios * c).sum())
        return 2.0 / math.pi * (math.asin(s) + s * math.sqrt(c) * terms) if odd else s * terms

    t0, t = _Z975, _Z975 + (_Z975**3 + _Z975) / (4.0 * nu)
    f0 = coverage(t0) - 0.95
    for _ in range(50):
        f = coverage(t) - 0.95
        if f == f0:
            break
        t0, t, f0 = t, t - f * (t - t0) / (f - f0), f
        if abs(t - t0) <= 1e-14 * t:
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
    publication. Both branches give the same runs, and the two cost about
    the same near 2 reads per publication, where the switch sits: forced
    on every slab, the per-publication search (P log R + P against
    R log P + R) made a run take 1.09-1.22x as long at 0.5 reads per
    publication, 1.08-1.10x at 1, 1.01-1.02x at 1.5, 1.01x at 1.75, 0.97x
    at 2, 0.94x at 2.5, 0.74-0.75x at 10 and 0.66-0.73x at 20 (horizon 100k
    publications, 2 vCPUs; the ratio of medians over 15 interleaved runs,
    three times).
    """
    if len(a_t) > 2 * len(pub):
        idx = np.searchsorted(a_t, pub, side="left")
        u = np.flatnonzero(np.diff(idx))
        return u, idx[u]
    # read i lies in window win[i] - 1; a run starts at the first read and wherever win changes
    win = np.searchsorted(pub, a_t, side="right")
    starts = np.ones(len(win), dtype=bool)
    np.not_equal(win[1:], win[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    return win[first] - 1, first


def _stationary_state(params: ModelParams, source: RandomSource) -> tuple:
    """A draw of the process's state at time 0, in equilibrium.

    Returns (start, origin, arr, comp, open_grace, open_reads): the publish
    times of the current copy and of the one before it, the arrivals (in
    order) and completions of the reads in service on the current copy,
    the grace ends of the stale copies still locked, and every completion
    of their reads, as _Run carries them from one slab to the next.

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


class _Run:
    """A run from its stationary start: the slab loop's carried state and running totals.

    state is (start, origin, arr, comp, open_grace, open_reads), first
    _stationary_state's draw from its own stream ("initial") and then what
    each slab carries to the next: the publish times of the copy current at
    the next slab's start and of the one before it, the reads drawn that
    arrive at or after `start` and their completions, and the grace ends of
    earlier copies and the completions of earlier reads still open at
    `start`. end and last_arr are the last publication and read arrival so
    far, summed from 0, and pubs counts the publications after 0. The areas
    integrate N(t) - 1, the age and the busy-reader count from 0 to end.
    """

    def __init__(self, params: ModelParams, seed: int, histogram: bool):
        self.rates = alpha, lam, mu = params.alpha, params.lam, params.mu
        self.writes = RandomSource(seed, "writes")
        self.arrivals = RandomSource(seed, "arrivals")
        self.services = RandomSource(seed, "services")
        self.slab = max(1, int(_SLAB_EVENTS * alpha / (alpha + lam)))
        # the time spent at each footprint level so far, up to the highest level held
        self.hist = np.zeros(0) if histogram else None
        self.state = _stationary_state(params, RandomSource(seed, "initial"))
        self.end = self.last_arr = 0.0
        self.pubs = self.reads_served = 0
        self.area_stale = self.area_age = self.area_reads = 0.0

    def advance(self, publications: int, boundaries: np.ndarray) -> np.ndarray:
        """Run `publications` more publications; the cumulative (stale area, age area, time) at each boundary.

        boundaries are increasing publication counts; a row is returned for
        each in (pubs, pubs + publications], where both areas are exact.

        A slab's publication times are the running sum of its draws. It
        draws lam (end - last arrival) reads plus four standard deviations,
        at most _SLAB_EVENTS at a time, until one arrives at or after its
        end; the arrival times are summed on the draw and the completions
        added onto the hold draw, both in place. The busy-reader area, the
        served count and the reads carried on come from one array of the
        slab's completions: a read is served once it completes before a
        slab's end, so one completing at a call's last publication is still
        held, and served by the next call. The age area of each sawtooth
        window, (0.5 dt + age) dt, is built in place in one buffer from the
        spent draws (past the first, the windows' lengths dt) and summed per
        batch by np.add.reduceat at the slab's batch boundaries (pairwise,
        as numpy sums), so the running total adds a few batch sums. The
        histogram grows to the highest level held for a positive time.
        """
        (alpha, lam, mu), hist = self.rates, self.hist
        top = math.ceil(10.0 * lam / mu) + 21  # the histogram's cap: higher levels are lumped there
        start, origin, arr, comp, open_grace, open_reads = self.state
        end, last_arr, pubs = self.end, self.last_arr, self.pubs
        stop = pubs + publications
        boundaries = boundaries[(pubs < boundaries) & (boundaries <= stop)]
        snaps = np.empty((len(boundaries), 3))
        bounds, b1 = boundaries.tolist(), 0
        # a slab's publication times and sawtooth window areas, in buffers every slab reuses
        pub_buf = np.empty(min(self.slab, publications) + 1)
        area_buf = np.empty(len(pub_buf) - 1)
        while pubs < stop:
            n_new = min(self.slab, stop - pubs)
            # pub[k] is the publish time of copy pubs+k; cumsum adds left to
            # right, so these are the times a one-draw-at-a-time loop reaches
            x = self.writes.exponential(alpha, n_new)
            x[0] += end
            pub = pub_buf[: n_new + 1]
            np.cumsum(x, out=pub[1:])
            pub[0] = start  # the first slab's copy was published before 0
            end = float(pub[-1])

            # the reads up to `end`: the expected count plus four standard deviations, drawn
            # again where that falls short; comp gathers the completions, the carried ones first
            comp = [open_reads, comp]
            while lam > 0 and (len(arr) == 0 or arr[-1] < end):
                m = lam * (end - last_arr)
                n = int(min(_SLAB_EVENTS, m + 4.0 * math.sqrt(m) + 1.0))
                arr = np.concatenate((arr, self.arrivals.exponential(lam, n)))
                new = arr[-n:]
                new[0] += last_arr
                last_arr = float(np.cumsum(new, out=new)[-1])
                comp.append(self.services.exponential(mu, n))
                comp[-1] += new
            cut = int(np.searchsorted(arr, end, side="left"))
            a_t, arr = arr[:cut], arr[cut:]
            n_open = len(open_reads)
            r_end = np.concatenate(comp)
            r_end, comp = r_end[: n_open + cut], r_end[n_open + cut :]
            c_t = r_end[n_open:]
            u, first = _read_windows(pub, a_t)
            # only a copy with a late reader outlives its replacement, which is at or before `end`
            last_done = np.maximum.reduceat(c_t, first)
            replaced = pub[u + 1]
            ext = last_done > replaced

            g_end = np.concatenate((open_grace, last_done[ext]))
            lo = max(start, 0.0)  # the measurement starts at 0, inside the first slab's window
            # N(t) - 1 counts the extensions: copy pubs+k's on [pub[k+1], its grace end),
            # and a copy carried from an earlier slab's on [lo, its grace end)
            xs = np.concatenate((open_grace, replaced[ext]))
            xs[: len(open_grace)] = lo
            xe = np.minimum(g_end, end)
            held = xe > xs
            xs, xe = xs[held], xe[held]
            if hist is not None:
                # xs is in publish order, so the stable sort merges two sorted runs;
                # at equal times a start comes before a stop
                times = np.concatenate((xs, np.sort(xe)))
                order = np.argsort(times, kind="stable")
                level = np.cumsum(np.where(order < len(xs), 1, -1)) + 1
                dur = np.diff(np.concatenate(([lo], times[order], [end])))
                # a level held for no time (a start and a stop at one instant) does not grow it
                grown = np.bincount(np.minimum(np.concatenate(([1], level)), top), weights=dur, minlength=len(hist))
                n = len(grown)
                while n > len(hist) and grown[n - 1] == 0.0:
                    n -= 1
                grown[: len(hist)] += hist
                hist = grown[:n]

            # sawtooth age: while copy pubs+k is current, its age runs from pub[k-1] (from
            # origin for k = 0), so each window after the first starts at the previous one's
            # length; the area (0.5 dt + age) dt is built in place, dt in the spent draws: past the
            # first, they are the windows' lengths, and the first holds window 0's whole length
            # (where window 1's age starts), then its length clipped at lo
            x[0] = pub[1] - start
            area = np.multiply(x, 0.5, out=area_buf[:n_new])
            area[1:] += x[:-1]
            x[0] = pub[1] - lo
            area[0] = 0.5 * x[0] + (lo - origin)
            area *= x

            # a read completing at `end` is carried, with no area, to the next slab
            open_reads = r_end[r_end >= end]
            self.reads_served += len(r_end) - len(open_reads)
            # the busy-reader area, over the spent completions; only the first slab's reads start before lo
            np.minimum(r_end, end, out=r_end)
            r_end[:n_open] -= lo
            r_end[n_open:] -= np.maximum(a_t, lo) if pubs == 0 else a_t
            self.area_reads += float(r_end.sum())

            # a boundary's offset ends a segment of age windows, and one at the slab's
            # last publication ends an empty last segment, which reduceat rejects
            b0, b1 = b1, bisect.bisect_right(bounds, pubs + n_new)
            off = boundaries[b0:b1] - pubs
            rows = snaps[b0:b1]
            rows[:, 2] = pub[off]
            rows[:, 0] = [
                self.area_stale + float(np.maximum(np.minimum(xe, t) - xs, 0.0).sum()) for t in rows[:, 2].tolist()
            ]
            cum_age = np.add.accumulate(np.add.reduceat(area, np.concatenate(([0], off[off < len(area)]))))
            rows[:, 1] = self.area_age + cum_age[: len(off)]
            self.area_stale += float((xe - xs).sum())
            self.area_age += float(cum_age[-1])

            open_grace = g_end[g_end > end]
            pubs += n_new
            origin, start = float(pub[-2]), end
        self.state = start, origin, arr, comp, open_grace, open_reads
        self.hist = hist
        self.end, self.last_arr, self.pubs = end, last_arr, pubs
        return snaps


def simulate(params: ModelParams, config: SimConfig) -> SimStats:
    """Simulate until the horizon and return time-averaged statistics.

    Deterministic: identical (params, config) give bit-identical results.
    Each stream ("initial", "writes", "arrivals", "services") is drawn in
    order, so the sample path does not depend on how the run is cut into
    slabs or into _Run.advance calls. At equal times a publication comes
    before a read arrival, and a read arrival before a completion. The run
    starts from _stationary_state's draw at time 0 and measures from there
    to the horizon's last publication. The batch means (Law & Kelton §9.5)
    are the differences of the cumulative areas and time at the batch
    boundaries.

    A run that could never finish, or whose age area would overflow,
    raises ConfigError before any draw: where 2 horizon/alpha^2 passes
    1e306, or where its lam horizon/alpha reads exceed 2**63.
    """
    validate(params)
    alpha, lam, mu = params.alpha, params.lam, params.mu
    # Poisson(lam/mu) reads are in service at 0, and the histogram's cap is 10 lam/mu levels up
    if not math.isfinite(10.0 * lam / mu):
        raise ConfigError(f"lambda/mu too large to simulate: {lam}/{mu}")
    # the age area sums to about 2 horizon/alpha^2, and 1e306 leaves a factor 180 for the longest
    # window and the spread (1/alpha overflowing passes it); 2**63 reads at ~2e7/s take millennia
    horizon = config.horizon_publications
    if 2.0 * horizon / alpha / alpha > 1e306 or lam * horizon / alpha > 2.0**63:
        raise ConfigError(f"alpha too small to simulate {horizon} publications at lambda {lam}: {alpha}")

    run = _Run(params, config.seed, config.sample_n_distribution)
    nb = config.batch_count
    snaps = run.advance(horizon, np.array([((i + 1) * horizon) // nb for i in range(nb)]))
    stale_sums, age_sums, durs = np.diff(snaps, axis=0, prepend=0.0).T
    tq = _t975(nb - 1)
    total_t = run.end  # the measurement runs from 0 to the last publication
    histogram = None if run.hist is None else {n: float(w) / total_t for n, w in enumerate(run.hist) if w > 0}

    return SimStats(
        mean_active_updates=1.0 + run.area_stale / total_t,
        mean_age=run.area_age / total_t,
        ci_half_width_n=_batch_ci(stale_sums, durs, tq),
        ci_half_width_age=_batch_ci(age_sums, durs, tq),
        publications=run.pubs,
        reads_served=run.reads_served,
        mean_busy_readers=run.area_reads / total_t,
        n_histogram=histogram,
    )
