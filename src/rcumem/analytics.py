"""Closed-form memory footprint and age for the memoryless RCU model.

The expected number of active updates is E[N] = 1 + sum_k P(update k still
in its grace period), where the per-update survival probability has both a
series form (Poisson-weighted) and an integral form over the preceding
write time. Both are implemented so each can serve as the other's oracle,
together with the Jensen upper bound and the simple 1 + lam/mu cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConvergenceError, DomainError, ModelParams, _float_or_array, _laggauss, _legendre_panels, b_k, validate


@dataclass(frozen=True)
class FootprintReport:
    """Exact footprint, its two upper bounds, the head length and the tail remainder."""

    en_exact: float
    en_bound_jensen: float
    en_bound_simple: float
    terms_used_k: int
    truncation_bound: float


def a_w(mu: float, w: float) -> float:
    """(1 - e^{-mu w}) / (mu w), the mean-lock-overlap factor; 1 at w = 0."""
    if not mu > 0:  # NaN fails too
        raise DomainError(f"mu must be > 0, got {mu}")
    if not w >= 0:
        raise DomainError(f"w must be >= 0, got {w}")
    x = mu * w
    if x == 0.0:
        return 1.0
    return -math.expm1(-x) / x


def lemma1_epsilon(params: ModelParams, k: int, w: float) -> float:
    """P(a read opened during a length-w window finishes in time): 1 - a_w q^k."""
    if not k >= 1:  # NaN fails too
        raise DomainError(f"k must be >= 1, got {k}")
    if not w > 0:
        raise DomainError(f"w must be > 0, got {w}")
    dp = validate(params)
    return 1.0 - a_w(params.mu, w) * dp.q**k


def p_ek_given_w(params: ModelParams, k: int, w: float) -> float:
    """P(grace period of update k over | preceding write took w): exp(-b_k (1 - e^{-mu w}))."""
    if not k >= 1:  # NaN fails too
        raise DomainError(f"k must be >= 1, got {k}")
    if not w >= 0:
        raise DomainError(f"w must be >= 0, got {w}")
    b = b_k(params, k)
    return math.exp(b * math.expm1(-params.mu * w))


def _kummer_m(r: float, b):
    """M(1, r + 1, -b) for b >= 0 (scalar or array), with numpy alone.

    M = int_0^inf exp(b expm1(-t/r) - t) dt (DLMF 13.4.1), taken two ways:
    - r < 10, b < 150: Kummer's transformation (DLMF 13.2.39) gives the
      Poisson sum e^{-b} (1 + sum_{n>=1} (b^n/n!) r/(r + n)), whose terms are
      all positive; it is cut b + 12 sqrt(b) + 40 terms in, at the largest b.
    - elsewhere: t = s/c with c = 1 + b/r, the integrand's initial decay rate,
      gives (1/c) int_0^inf e^{-s} exp(b (expm1(-x) + x)) ds with x = s/(c r),
      for the 40-node Gauss-Laguerre rule (core._laggauss, every node below
      146.5); below x = 1e-3, expm1(-x) + x is its Taylor series, which does
      not cancel.
    Within 1e-13 relative of 30-digit mpmath for r in [1e-12, 1e10] and b in
    [0, 1e13].
    """
    b = np.asarray(b, dtype=float)
    m = np.empty_like(b)
    small = (b < 150.0) & (r < 10.0)
    bs = b[small]
    if bs.size:
        top = float(bs.max())
        n = np.arange(1.0, top + 12.0 * math.sqrt(top) + 41.0)
        m[small] = np.exp(-bs) * (1.0 + np.cumprod(bs[..., None] / n, axis=-1) @ (r / (r + n)))
    if bs.size < b.size:
        s, wt = _laggauss(40)
        bl = b[~small]
        c = 1.0 + bl / r
        x = s / (c[..., None] * r)
        f = np.where(x < 1e-3, x * x * (0.5 - x * (1 / 6 - x * (1 / 24 - x / 120))), np.expm1(-x) + x)
        m[~small] = np.exp(bl[..., None] * f) @ wt / c
    return m


def p_ek_series(params: ModelParams, k):
    """P(E_k) by the Poisson-weighted series sum_j pois(j; b_k) * r/(r + j), r = alpha/mu.

    By Kummer's transformation (DLMF 13.2.39) the series is M(1, r + 1, -b_k),
    evaluated by _kummer_m in one array pass over k. k is an int (a float
    comes back) or an integer ndarray (an array of its shape comes back).
    ConvergenceError where b_k or M is not finite.
    """
    b = np.asarray(b_k(params, k), dtype=float)
    if not np.isfinite(b).all():  # _kummer_m would take inf * 0
        raise ConvergenceError(f"p_ek_series: b_k not finite at lam/mu={params.lam / params.mu}")
    p = _kummer_m(params.alpha / params.mu, b)
    bad = ~np.isfinite(p)
    if bad.any():
        raise ConvergenceError(f"p_ek_series: M(1, r + 1, -b) not finite at b_k={b[bad].flat[0]}")
    return _float_or_array(p)


# nodes per panel of p_ek_quadrature's rule and of its embedded check rule
_NODES = 32
_CHECK_NODES = 16


def p_ek_quadrature(params: ModelParams, k):
    """P(E_k) by the integral form alpha * int_0^inf e^{-b_k(1-e^{-mu w})} e^{-alpha w} dw.

    With t = alpha w this is int_0^inf exp(b_k expm1(-t/r) - t) dt, r = alpha/mu,
    taken on [0, 40]; the rest is below e^{-40}. The integrand is at most
    e^{-t}, so it cannot overflow, and it falls on the scales 1, r and
    r/b_k. A fixed composite Gauss-Legendre rule from core._legendre_panels
    resolves each: a first panel [0, c] with c = min(1, r/max(1, max_k b_k)),
    then panels growing by a factor of 4 up to 40, with _NODES = 32 nodes
    each. The _CHECK_NODES = 16-node rule on the same panels gives the error
    estimate, the sum over panels of |G32 - G16|.
    k is an int (a float comes back) or an integer ndarray (an array of its
    shape, from one pass on one panel set). ConvergenceError where an
    estimate exceeds 1e-9, where b_k is not finite, or where r leaves no
    first panel.
    """
    b = np.asarray(b_k(params, k), dtype=float)
    if not np.isfinite(b).all():  # with r infinite too, b_k expm1(-t/r) would be inf * 0
        raise ConvergenceError(f"p_ek_quadrature: b_k not finite at lam/mu={params.lam / params.mu}")
    r = params.alpha / params.mu
    c = min(1.0, r / max(1.0, float(np.max(b, initial=0.0))))
    if not c > 0.0:
        raise ConvergenceError(f"p_ek_quadrature: no first panel at r={r}, b_k={np.max(b)}")
    # c * 4^i, exactly, with no overflow of 4^i where c is tiny
    top = np.ldexp(c, 2 * np.arange(math.ceil((math.log(40.0) - math.log(c)) / math.log(4.0))))
    edges = np.concatenate(([0.0], top[top < 40.0], [40.0]))
    t, w = _legendre_panels(edges, _NODES)
    t_check, w_check = _legendre_panels(edges, _CHECK_NODES)
    t = np.concatenate((t, t_check), axis=-1)  # both rules' nodes, for one pass of the integrand
    with np.errstate(over="ignore"):  # t/r past the float range is inf, where expm1 takes its limit -1
        f = np.exp(b[..., None, None] * np.expm1(-t / r) - t)
    g = (f[..., :_NODES] * w).sum(axis=-1)
    err = np.abs(g - (f[..., _NODES:] * w_check).sum(axis=-1)).sum(axis=-1)
    bad = ~(err <= 1e-9)
    if bad.any():
        raise ConvergenceError(f"p_ek_quadrature: error estimate {err[bad].flat[0]:.2e} at b_k={b[bad].flat[0]}")
    return _float_or_array(g.sum(axis=-1))


def en_bound_simple(params: ModelParams) -> float:
    """The coarse cap 1 + lam/mu (reads in flight can tag at most that many copies)."""
    dp = validate(params)
    return 1.0 + dp.rho


# power-series terms kept in the k-tail: each is at most half the one before
_TAIL_TERMS = 64
# cap on the k summed directly
_MAX_HEAD = 200_000
# head terms per call of f: _kummer_m's Gauss-Laguerre rule holds several (block, 40) arrays at once
_HEAD_BLOCK = 4096


def _sum_over_k(f, den: np.ndarray, params: ModelParams, name: str) -> tuple[float, int, float]:
    """sum_{k>=1} f(b_k), b_k = rho q^k, where f(b) = -sum_{n>=1} prod_{i<=n} (-b/den[i-1]).

    Returns (sum, head, remainder). The head, the k with b_k above den[0]/2,
    is evaluated directly with f, _HEAD_BLOCK terms per call, into one array
    that is summed once. In the rest the series ratio
    stays at or below 1/2, so the two sums are swapped:
    sum_{i>=0} q^{n i} = -1/expm1(n ln q) leaves one power series in the
    first tail b, cut after _TAIL_TERMS terms; the remainder bounds what the
    cut drops. At rho = 0 it is (0.0, 0, 0.0), whatever r. Otherwise
    ConvergenceError where alpha/mu overflows (q rounds to 1) or underflows
    (q rounds to 0, and den[0] may be 0), or past _MAX_HEAD head terms.
    """
    rho = params.lam / params.mu
    if rho == 0.0:
        return 0.0, 0, 0.0  # every b_k rounds to 0, where f vanishes
    r = params.alpha / params.mu
    if math.isinf(r):
        raise ConvergenceError(f"{name}: alpha/mu overflows, so q rounds to 1")
    if r == 0.0:
        raise ConvergenceError(f"{name}: alpha/mu underflows, so q rounds to 0")
    lnq = -math.log1p(params.mu / params.alpha)  # math.log(q) would carry q's rounding, 1e-16 r relative
    # b_k is above the cut for k < x
    x = (math.log(den[0]) - math.log(2.0) - math.log(rho)) / lnq
    if not x <= _MAX_HEAD + 1:
        raise ConvergenceError(f"{name}: more than {_MAX_HEAD} terms above the power-series cut")
    head = max(0, math.ceil(x) - 1)
    head_terms = np.empty(head)
    for lo in range(0, head, _HEAD_BLOCK):
        k = np.arange(lo + 1.0, min(lo + _HEAD_BLOCK, head) + 1.0)
        head_terms[lo:lo + k.size] = f(rho * np.exp(k * lnq))
    total = float(head_terms.sum())
    n = np.arange(1.0, _TAIL_TERMS + 1.0)
    terms = np.cumprod(-rho * math.exp((head + 1) * lnq) / den) / np.expm1(n * lnq)
    return total + float(terms.sum()), head, abs(float(terms[-1]))


def en_bound_jensen(params: ModelParams) -> float:
    """Jensen upper bound 1 + sum_{k>=1} q^k / (q^k + alpha/lam).

    Each term is b_k/(b_k + r) with r = alpha/mu, whose power series in b_k has
    coefficients r^{-n}; summed over every k by _sum_over_k.
    """
    validate(params)
    r = params.alpha / params.mu
    return 1.0 + _sum_over_k(lambda b: b / (b + r), np.full(_TAIL_TERMS, r), params, "en_bound_jensen")[0]


def en_exact(params: ModelParams) -> FootprintReport:
    """Exact expected number of active updates, with both bounds and a remainder.

    Sums 1 + sum_{k>=1} (1 - P(E_k)) over every k by _sum_over_k, where
    1 - M(1, r + 1, -b) has power-series coefficients 1/(r + 1)_n.
    terms_used_k is the number of k evaluated directly (the head), and
    truncation_bound the last kept term of the power series over the rest,
    which bounds the dropped ones. ConvergenceError where lam > 0 and
    alpha/mu overflows, past _MAX_HEAD head terms, or where M is not finite.
    """
    dp = validate(params)
    r = params.alpha / params.mu
    den = r + np.arange(1.0, _TAIL_TERMS + 1.0)
    total, head, bound = _sum_over_k(lambda b: 1.0 - _kummer_m(r, b), den, params, "en_exact")
    if not math.isfinite(total):
        raise ConvergenceError("en_exact: M(1, r + 1, -b) not finite")
    return FootprintReport(1.0 + total, en_bound_jensen(params), 1.0 + dp.rho, head, bound)


def avg_age(params: ModelParams) -> float:
    """Time-average age of the current update: 2/alpha."""
    validate(params)
    return 2.0 / params.alpha
