"""Closed-form memory footprint and age for the memoryless RCU model.

The expected number of active updates is E[N] = 1 + sum_k P(update k still
in its grace period), where the per-update survival probability has both a
series form (Poisson-weighted) and an integral form over the preceding
write time. Both are implemented so each can serve as the other's oracle,
together with the Jensen upper bound and the simple 1 + lam/mu cap.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ConvergenceError, DomainError, ModelParams, SeriesControl, b_k, validate


@dataclass(frozen=True)
class FootprintReport:
    """Exact footprint, its two upper bounds, and the truncation certificate."""

    en_exact: float
    en_bound_jensen: float
    en_bound_simple: float
    terms_used_k: int
    truncation_bound: float


def a_w(mu: float, w: float) -> float:
    """(1 - e^{-mu w}) / (mu w), the mean-lock-overlap factor; 1 at w = 0."""
    if mu <= 0:
        raise DomainError(f"mu must be > 0, got {mu}")
    if w < 0:
        raise DomainError(f"w must be >= 0, got {w}")
    x = mu * w
    if x == 0.0:
        return 1.0
    return -math.expm1(-x) / x


def lemma1_epsilon(params: ModelParams, k: int, w: float) -> float:
    """P(a read opened during a length-w window finishes in time): 1 - a_w q^k."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if w <= 0:
        raise DomainError(f"w must be > 0, got {w}")
    dp = validate(params)
    return 1.0 - a_w(params.mu, w) * dp.q**k


def p_ek_given_w(params: ModelParams, k: int, w: float) -> float:
    """P(grace period of update k over | preceding write took w): exp(-b_k (1 - e^{-mu w}))."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if w < 0:
        raise DomainError(f"w must be >= 0, got {w}")
    b = b_k(params, k)
    return math.exp(b * math.expm1(-params.mu * w))


def _complement_sums(b: np.ndarray, r: float, ctrl: SeriesControl) -> np.ndarray:
    """sum_j pois(j; b_k) * j/(r + j) for each entry of a non-increasing array b.

    Each summand is bounded by the Poisson pmf, so an entry's sum stops once
    its remaining Poisson tail mass drops below ctrl.tol; that tail mass is a
    rigorous bound on the discarded error. Poisson weights are accumulated in
    log space to survive large b. A smaller b has a lighter tail, so the
    entries still running are a prefix of the array, and each step over j
    touches only that prefix.
    """
    if b[0] > ctrl.max_j:
        # the Poisson(b_k) median is above max_j, so the tail can never get below tol
        raise ConvergenceError(f"p_ek_series: max_j={ctrl.max_j} reached at b_k={b[0]}")
    comp = np.zeros_like(b)  # j = 0 terms are zero
    logp = -b  # log Poisson pmf at j = 0
    cdf = np.exp(logp)
    live = 1.0 - cdf >= ctrl.tol
    n = _prefix_len(live, b.size)
    logb = np.log(b[:n])
    p = np.empty(n)
    j = 0
    while n:
        # views of the running prefix, taken again only when its last entry meets tol
        lb, lp, cd, cm, lv, pn = logb[:n], logp[:n], cdf[:n], comp[:n], live[:n], p[:n]
        while lv[-1]:
            j += 1
            if j > ctrl.max_j:
                raise ConvergenceError(f"p_ek_series: max_j={ctrl.max_j} reached at b_k={b[n - 1]}")
            np.subtract(lb, math.log(j), pn)
            lp += pn
            np.exp(lp, pn)
            pn *= lv  # entries inside the prefix that already met tol stay as they are
            cd += pn
            pn *= j / (r + j)
            cm += pn
            np.subtract(1.0, cd, pn)
            np.greater_equal(pn, ctrl.tol, lv)
        n = _prefix_len(live, n)
    return comp


def _prefix_len(live: np.ndarray, n: int) -> int:
    # one past the last true entry among the first n
    last = n - 1 - int(np.argmax(live[n - 1::-1]))
    return last + 1 if live[last] else 0


def p_ek_series(params: ModelParams, k: int, ctrl: SeriesControl = SeriesControl()) -> float:
    """P(E_k) by the Poisson-weighted series.

    Returns one minus the complement sum_j pois(j; b_k) * j/(alpha/mu + j),
    truncated once the remaining Poisson tail mass drops below ctrl.tol.
    """
    b = b_k(params, k)
    return 1.0 - float(_complement_sums(np.array([b]), params.alpha / params.mu, ctrl)[0])


@functools.lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    # one eigensolve per node count; the arrays are shared, so read-only
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _gauss_legendre_01(f, n: int) -> float:
    # composite rule on [0,1]: 8 panels of n nodes each
    nodes, weights = _leggauss(n)
    panels = 8
    total = 0.0
    h = 1.0 / panels
    for i in range(panels):
        a = i * h
        x = a + (nodes + 1.0) * (h / 2.0)
        total += (h / 2.0) * float(np.dot(weights, f(x)))
    return total


def p_ek_quadrature(params: ModelParams, k: int, ctrl: SeriesControl = SeriesControl()) -> float:
    """P(E_k) by the integral form alpha * int_0^inf e^{-b_k(1-e^{-mu w})} e^{-alpha w} dw.

    The substitution y = e^{-mu w} turns this into
    (alpha/mu) e^{-b_k} int_0^1 y^{alpha/mu - 1} e^{b_k y} dy. For
    alpha/mu < 1 the endpoint singularity at y = 0 is removed with the
    further substitution y = u^{mu/alpha}, leaving a bounded integrand.
    Node counts are doubled until two successive results agree to 1e-10.
    """
    b = b_k(params, k)
    r = params.alpha / params.mu
    if r >= 1.0:
        def integrand(y):
            return y ** (r - 1.0) * np.exp(b * y)

        scale = r * math.exp(-b)
    else:
        # int_0^1 y^{r-1} e^{by} dy = (1/r) int_0^1 e^{b u^{1/r}} du
        def integrand(u):
            return np.exp(b * u ** (1.0 / r))

        scale = math.exp(-b)

    n = ctrl.quad_points
    prev = scale * _gauss_legendre_01(integrand, n)
    diff = math.inf
    for _ in range(8):
        n *= 2
        cur = scale * _gauss_legendre_01(integrand, n)
        diff = abs(cur - prev)
        if diff <= 1e-10:
            return cur
        prev = cur
    if diff > 1e-9:
        raise ConvergenceError(f"p_ek_quadrature: no convergence at b_k={b}, n={n}")
    return prev


def en_bound_simple(params: ModelParams) -> float:
    """The coarse cap 1 + lam/mu (reads in flight can tag at most that many copies)."""
    dp = validate(params)
    return 1.0 + dp.rho


def _geometric_tail(rho: float, q: float, k: int) -> float:
    # sum_{i > k} (lam/alpha) q^i = (lam/mu) q^k; rigorous majorant of the discarded terms
    return rho * q**k


def _terms_needed(rho: float, q: float, ctrl: SeriesControl, name: str) -> int:
    """K, the first k >= 1 with rho q^k < ctrl.tol; ConvergenceError past ctrl.max_k.

    The closed form ln(tol/rho)/ln(q) is rounded up, then moved by whole
    steps until it is exactly the first k for which the term-by-term test
    rho q^k < tol holds.
    """
    if _geometric_tail(rho, q, 1) < ctrl.tol:
        return 1
    k = ctrl.max_k + 1  # q rounded to 1, or an infinite rho, never meets tol
    if q < 1.0 and math.isfinite(rho):
        k = min(k, math.ceil((math.log(ctrl.tol) - math.log(rho)) / math.log(q)))
        while k > 1 and _geometric_tail(rho, q, k - 1) < ctrl.tol:
            k -= 1
        while k <= ctrl.max_k and _geometric_tail(rho, q, k) >= ctrl.tol:
            k += 1
    if k > ctrl.max_k:
        raise ConvergenceError(f"{name}: max_k={ctrl.max_k} reached")
    return k


# terms per array pass over k: memory stays flat in K, and a pass fits in cache
_CHUNK = 8192


def _powers(q: float, k_total: int):
    """q^k for k = 1..k_total, as fresh arrays of up to _CHUNK terms each."""
    for start in range(0, k_total, _CHUNK):
        qk = np.arange(start + 1.0, min(k_total, start + _CHUNK) + 1.0)
        yield np.power(q, qk, out=qk)


def en_bound_jensen(params: ModelParams, ctrl: SeriesControl = SeriesControl()) -> float:
    """Jensen upper bound 1 + sum_k q^k / (q^k + alpha/lam), over the same K terms as en_exact."""
    dp = validate(params)
    if params.lam == 0.0:
        return 1.0
    ratio = params.alpha / params.lam
    total = 1.0
    for qk in _powers(dp.q, _terms_needed(dp.rho, dp.q, ctrl, "en_bound_jensen")):
        den = qk + ratio
        np.divide(qk, den, out=den)
        total += float(den.sum())
    return total


def en_exact(params: ModelParams, ctrl: SeriesControl = SeriesControl()) -> FootprintReport:
    """Exact expected number of active updates, with bounds and truncation certificate.

    Sums 1 + sum_k (1 - P(E_k)) over k = 1..K as array passes; each term
    is at most (lam/alpha) q^k, so the tail after K terms is at most
    (lam/mu) q^K. K is the first k that drives this below ctrl.tol, and the
    bound is reported as truncation_bound.
    """
    dp = validate(params)
    jensen = en_bound_jensen(params, ctrl)
    simple = en_bound_simple(params)
    if params.lam == 0.0:
        return FootprintReport(1.0, jensen, simple, 0, 0.0)
    k = _terms_needed(dp.rho, dp.q, ctrl, "en_exact")
    r = params.alpha / params.mu
    total = 1.0
    for b in _powers(dp.q, k):
        b *= params.lam
        b /= params.mu  # b_k = lam q^k / mu
        total += float(_complement_sums(b, r, ctrl).sum())
    return FootprintReport(total, jensen, simple, k, _geometric_tail(dp.rho, dp.q, k))


def avg_age(params: ModelParams) -> float:
    """Time-average age of the current update: 2/alpha."""
    validate(params)
    return 2.0 / params.alpha
