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


# Gauss-Laguerre rule for int_0^inf e^{-s} f(s) ds (DLMF 3.5(v)); every node is below 146.5
_LAG_S, _LAG_W = np.polynomial.laguerre.laggauss(40)


def _kummer_m(r: float, b):
    """M(1, r + 1, -b) for b >= 0 (scalar or array), with numpy alone.

    M = int_0^inf exp(b expm1(-t/r) - t) dt (DLMF 13.4.1), taken three ways:
    - r >= 10: t = s/c with c = 1 + b/r, the integrand's initial decay rate,
      gives (1/c) int_0^inf e^{-s} exp(b (expm1(-x) + x)) ds with x = s/(c r),
      for the 40-node Laguerre rule; below x = 1e-3, expm1(-x) + x is its
      Taylor series, which does not cancel.
    - r < 10, b < 150: Kummer's transformation (DLMF 13.2.39) gives the
      Poisson sum e^{-b} (1 + sum_{n>=1} (b^n/n!) r/(r + n)), whose terms are
      all positive; it is cut b + 12 sqrt(b) + 40 terms in, at the largest b.
    - r < 10, b >= 150: y = b (1 - e^{-t/r}) gives
      (r/b) int_0^b e^{-y} (1 - y/b)^{r-1} dy, for the same rule, whose nodes
      all lie below b; the part beyond b is O(e^{-150}).
    Within 1e-13 relative of 30-digit mpmath for r in [1e-12, 1e10] and b in
    [0, 1e13].
    """
    b = np.asarray(b, dtype=float)
    if r >= 10.0:
        c = 1.0 + b / r
        x = _LAG_S / (c[..., None] * r)
        f = np.where(x < 1e-3, x * x * (0.5 - x * (1 / 6 - x * (1 / 24 - x / 120))), np.expm1(-x) + x)
        return np.exp(b[..., None] * f) @ _LAG_W / c
    m = np.empty_like(b)
    small = b < 150.0
    bs = b[small]
    if bs.size:
        top = float(bs.max())
        n = np.arange(1.0, top + 12.0 * math.sqrt(top) + 41.0)
        m[small] = np.exp(-bs) * (1.0 + np.cumprod(bs[..., None] / n, axis=-1) @ (r / (r + n)))
    if bs.size < b.size:
        bl = b[~small]
        m[~small] = r / bl * (np.exp((r - 1.0) * np.log1p(-_LAG_S / bl[..., None])) @ _LAG_W)
    return m


def p_ek_series(params: ModelParams, k: int) -> float:
    """P(E_k) by the Poisson-weighted series sum_j pois(j; b_k) * r/(r + j), r = alpha/mu.

    By Kummer's transformation (DLMF 13.2.39) the series is M(1, r + 1, -b_k),
    evaluated by _kummer_m. ConvergenceError where that is not finite.
    """
    b = b_k(params, k)
    p = float(_kummer_m(params.alpha / params.mu, b))
    if not math.isfinite(p):
        raise ConvergenceError(f"p_ek_series: M(1, r + 1, -b) not finite at b_k={b}")
    return p


def p_ek_quadrature(params: ModelParams, k: int) -> float:
    """P(E_k) by the integral form alpha * int_0^inf e^{-b_k(1-e^{-mu w})} e^{-alpha w} dw.

    With t = alpha w this is int_0^inf exp(b_k expm1(-t/r) - t) dt, r = alpha/mu,
    taken by one scipy quad call on [0, 40]; the rest is below e^{-40}. The
    integrand is at most e^{-t}, so it cannot overflow, and it falls on the
    scales 1, r and r/b_k. quad starts from breakpoints at the smallest of
    these times powers of 10, so no scale hides between its first nodes.
    ConvergenceError where quad's error estimate exceeds 1e-9.
    """
    from scipy.integrate import quad  # scipy.integrate is slow to import; keep it off `import rcumem.cli`

    b = b_k(params, k)
    r = params.alpha / params.mu
    c = min(1.0, r / max(1.0, b))
    points = [c * 10.0**i for i in range(math.ceil(math.log10(40.0 / c)))]
    f = lambda t: math.exp(b * math.expm1(-t / r) - t)
    v, err = quad(f, 0.0, 40.0, points=points, epsabs=1e-13, epsrel=1e-13, limit=200)
    if not err <= 1e-9:
        raise ConvergenceError(f"p_ek_quadrature: error estimate {err:.2e} at b_k={b}")
    return v


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


# power-series terms kept in the k-tail: each is at most half the one before
_TAIL_TERMS = 64


def _sum_over_k(f, den: np.ndarray, rho: float, q: float, k_total: int) -> float:
    """sum_{k=1}^{k_total} f(rho q^k), where f(b) = -sum_{n>=1} prod_{i<=n} (-b/den[i-1]).

    Up to _TAIL_TERMS terms are evaluated directly with f, as one array;
    beyond that, so are the terms with b above den[0]/2. In the rest the
    series ratio stays at or below 1/2, so the two sums are swapped:
    sum_{i<m} q^{n i} = expm1(n m ln q)/expm1(n ln q) leaves one power series
    in the first tail b, and the cost does not depend on k_total.
    """
    if q == 0.0 or rho == 0.0:
        return 0.0  # every b_k rounds to 0, where f vanishes
    if k_total <= _TAIL_TERMS:
        return float(f(rho * np.power(q, np.arange(1.0, k_total + 1.0))).sum())
    lnq = math.log(q)
    # b_k is above the cut for k < x
    x = (math.log(den[0]) - math.log(2.0) - math.log(rho)) / lnq
    head = max(0, min(k_total, math.ceil(x) - 1))
    total = float(f(rho * np.power(q, np.arange(1.0, head + 1.0))).sum())
    m = k_total - head
    if m:
        n = np.arange(1.0, _TAIL_TERMS + 1.0)
        terms = np.cumprod(-rho * q ** (head + 1) / den)
        total -= float(np.dot(terms, np.expm1(n * m * lnq) / np.expm1(n * lnq)))
    return total


def _jensen(r: float, rho: float, q: float, k_total: int) -> float:
    return 1.0 + _sum_over_k(lambda b: b / (b + r), np.full(_TAIL_TERMS, r), rho, q, k_total)


def en_bound_jensen(params: ModelParams, ctrl: SeriesControl = SeriesControl()) -> float:
    """Jensen upper bound 1 + sum_k q^k / (q^k + alpha/lam), over the same K terms as en_exact.

    Each term is b_k/(b_k + r) with r = alpha/mu, whose power series in b_k has
    coefficients r^{-n}.
    """
    dp = validate(params)
    if params.lam == 0.0:
        return 1.0
    k = _terms_needed(dp.rho, dp.q, ctrl, "en_bound_jensen")
    return _jensen(params.alpha / params.mu, dp.rho, dp.q, k)


def en_exact(params: ModelParams, ctrl: SeriesControl = SeriesControl()) -> FootprintReport:
    """Exact expected number of active updates, with bounds and truncation certificate.

    Sums 1 + sum_k (1 - P(E_k)) over k = 1..K, where 1 - M(1, r + 1, -b) has
    power-series coefficients 1/(r + 1)_n; each term is at most
    (lam/alpha) q^k, so the tail after K terms is at most (lam/mu) q^K. K is
    the first k that drives this below ctrl.tol, and the bound is reported
    as truncation_bound. The Jensen bound is summed over the same K terms.
    """
    dp = validate(params)
    simple = 1.0 + dp.rho
    if params.lam == 0.0:
        return FootprintReport(1.0, 1.0, simple, 0, 0.0)
    k = _terms_needed(dp.rho, dp.q, ctrl, "en_exact")
    r = params.alpha / params.mu
    den = r + np.arange(1.0, _TAIL_TERMS + 1.0)
    total = 1.0 + _sum_over_k(lambda b: 1.0 - _kummer_m(r, b), den, dp.rho, dp.q, k)
    if not math.isfinite(total):
        raise ConvergenceError("en_exact: M(1, r + 1, -b) not finite")
    return FootprintReport(total, _jensen(r, dp.rho, dp.q, k), simple, k, _geometric_tail(dp.rho, dp.q, k))


def avg_age(params: ModelParams) -> float:
    """Time-average age of the current update: 2/alpha."""
    validate(params)
    return 2.0 / params.alpha
