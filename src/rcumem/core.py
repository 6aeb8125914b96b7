"""Model parameters, derived quantities, and the seeded random source.

The stochastic model is defined by three rates: a writer publishing update
copies at rate alpha, readers arriving at rate lambda, and read locks held
for exponential(mu) times. Everything downstream (closed forms, simulation,
Monte Carlo oracles) consumes the same validated parameter triple and the
same deterministic random-source contract defined here.
"""
from __future__ import annotations

import copy
import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

_U64 = (1 << 64) - 1
# the largest mean Generator.poisson takes: its int64 result must hold the draw
_POISSON_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


class DomainError(ValueError):
    """An argument is outside the model's domain."""


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach its tolerance within caps."""


@dataclass(frozen=True)
class ModelParams:
    """Rate triple (alpha, lam, mu): write rate, read arrival rate, read service rate."""

    alpha: float
    lam: float
    mu: float


@dataclass(frozen=True)
class DerivedParams:
    """q = alpha/(alpha+mu), the write-beats-read probability; rho = lam/mu, offered read load."""

    q: float
    rho: float


def validate(params: ModelParams) -> DerivedParams:
    """Check the rate triple and return (q, rho)."""
    a, l, m = params.alpha, params.lam, params.mu
    for name, v in (("alpha", a), ("lambda", l), ("mu", m)):
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise DomainError(f"{name} must be finite, got {v!r}")
    if a <= 0:
        raise DomainError(f"alpha must be > 0, got {a}")
    if m <= 0:
        raise DomainError(f"mu must be > 0, got {m}")
    if l < 0:
        raise DomainError(f"lambda must be >= 0, got {l}")
    return DerivedParams(q=a / (a + m), rho=l / m)


def _float_or_array(a: np.ndarray):
    """A 0-d result as a float, any other as the array."""
    return float(a) if a.ndim == 0 else a


@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's n-node Gauss-Legendre rule on [-1, 1] (DLMF 3.5(v)), built on its first call.

    Read-only, since every caller shares the one cached pair.
    """
    x, wt = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = wt.flags.writeable = False
    return x, wt


@functools.cache
def _laggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's n-node Gauss-Laguerre rule for int_0^inf e^{-s} f(s) ds (DLMF 3.5(v)), as _leggauss's."""
    s, wt = np.polynomial.laguerre.laggauss(n)
    s.flags.writeable = wt.flags.writeable = False
    return s, wt


def _legendre_panels(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The composite n-node Gauss-Legendre rule on the panels between consecutive edges.

    Returns (nodes, weights), each of shape (panels, n): row i holds panel
    [edges[i], edges[i + 1]]'s nodes and weights, so the sum of
    weights * f(nodes) over a row is that panel's integral, and over both
    axes the integral from edges[0] to edges[-1]. The one composite rule
    builder of the package; callers must not write into the returned arrays.
    """
    x, wt = _leggauss(n)
    half = np.diff(edges)[:, None] / 2.0
    return edges[:-1, None] + half * (x + 1.0), half * wt


def b_k(params: ModelParams, k):
    """lam * q^k / mu: mean residual-reader count parameter for the k-th stale update.

    k is an int or an integer ndarray; b_k has its shape. Where lam/mu
    overflows, b_k is inf, as Python's float division gives for an int k.
    """
    if not np.all(np.asarray(k) >= 1):
        raise DomainError(f"k must be >= 1, got {k}")
    dp = validate(params)
    with np.errstate(over="ignore"):
        return params.lam * dp.q**k / params.mu


def _check_rate(rate: float) -> None:
    if not 0 < rate < math.inf:  # NaN fails too
        raise DomainError(f"rate must be finite and > 0, got {rate}")


class RandomSource:
    """Deterministic random stream keyed by (seed, stream name).

    Backed by numpy's PCG64 (documented, seedable, period 2^128); the stream
    name is hashed through SHA-256 so distinct names give decorrelated
    sub-streams of the same seed. Exponential and integer-shape Gamma
    variates are built from uniforms by inverse transform, -log1p(-U)/rate,
    computed in place on the drawn uniforms as log1p(-U)/(-rate) (for Gamma,
    the row sum of log1p(-U) over -rate). Under round-to-nearest, negation
    is exact and a sign moves freely through a sum or a quotient, so the
    values are bit-identical to the textbook form and no temporary array is
    made. Poisson variates are numpy's own (Generator.poisson), so for one
    seed they are fixed for a given numpy install.

    Each uniform or exponential variate consumes one 64-bit draw of the
    stream and each gamma_int variate consumes `shape` draws, so `split` can
    hand out the segments that later calls would reach. Poisson consumes a
    count that depends on the values drawn: a split must never cross a
    Poisson draw.

    Instances are single-owner: never share one across threads.
    """

    def __init__(self, seed: int, stream: str = ""):
        self.seed = int(seed) & _U64
        self.stream = stream
        key = int.from_bytes(hashlib.sha256(stream.encode("utf-8")).digest()[:8], "little")
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, key])))

    def split(self, *counts: int) -> list[RandomSource]:
        """Sources at the starts of consecutive segments of `counts` draws; self moves past them all.

        Each is a copy of the PCG64 state advanced to its segment (PCG64.advance,
        O(log n)), so drawing a segment's variates from its source, in blocks
        of any sizes, gives the values the same calls on self would have given.
        """
        for n in counts:
            if not (0 <= n < math.inf and n == int(n)):
                raise DomainError(f"split counts must be integers >= 0, got {n!r}")
        bits = self._gen.bit_generator
        parts = []
        for n in counts:
            part = object.__new__(RandomSource)
            part.seed, part.stream = self.seed, self.stream
            part._gen = np.random.Generator(copy.deepcopy(bits))
            parts.append(part)
            bits.advance(int(n))
        return parts

    def uniform(self, size: int | None = None):
        """Uniform(0,1) doubles."""
        return self._gen.random(size)

    def exponential(self, rate: float, size: int | None = None):
        """Exponential(rate) via inverse transform -log(1-U)/rate; inf where that passes the float range."""
        _check_rate(rate)
        u = self._gen.random(1 if size is None else size)
        np.log1p(np.negative(u, out=u), out=u)
        with np.errstate(over="ignore"):  # below a rate of about 2e-307 a variate can pass the float range
            u /= -rate
        return u[0] if size is None else u

    def gamma_int(self, shape: int, rate: float, size: int | None = None):
        """Gamma(integer shape, rate) as a sum of `shape` exponentials; inf where that passes the float range."""
        if not (1 <= shape < math.inf and shape == int(shape)):
            raise DomainError(f"shape must be a positive integer, got {shape}")
        _check_rate(rate)
        n = 1 if size is None else int(size)
        u = self._gen.random((n, int(shape)))
        np.log1p(np.negative(u, out=u), out=u)
        if shape < 8:
            # numpy sums a row of fewer than 8 terms left to right, so column
            # adds give the same bits without the row-wise reduction's overhead
            out = u[:, 0].copy()
            for j in range(1, int(shape)):
                out += u[:, j]
        else:
            # from 8 terms numpy's pairwise sum keeps 8 partial sums, which a
            # left-to-right loop would not reproduce
            out = u.sum(axis=1)
        with np.errstate(over="ignore"):
            out /= -rate
        return float(out[0]) if size is None else out

    def poisson(self, mean, size: int | None = None):
        """Poisson variates; `mean` may be a scalar or an array, each in [0, ~9.2e18]."""
        m = np.asarray(mean, dtype=float)
        if not np.all((m >= 0) & (m <= _POISSON_MAX)):  # NaN fails too
            raise DomainError(f"poisson mean must be >= 0 and <= {_POISSON_MAX:.4g}")
        return self._gen.poisson(m, size)
