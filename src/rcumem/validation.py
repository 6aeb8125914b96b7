"""Independent oracles for the closed-form results.

Monte Carlo estimators rebuild the probabilistic construction behind the
grace-period survival probabilities from raw uniforms, and quadrature
recomputes the densities and integrals used in deriving them. These are
test infrastructure: slower than the analytics module, but with no shared
code path to it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc as gammainc_reg, gammaincc

from .core import ConvergenceError, DomainError, ModelParams, RandomSource, validate
from .analytics import lemma1_epsilon


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    samples: int


def fy_density(mu: float, w: float, y: float) -> float:
    """Density of Y = U + X with U uniform(-w, 0) and X exponential(mu).

    Piecewise: (1 - e^{-mu(w+y)})/w on [-w, 0], (e^{-mu y} - e^{-mu(w+y)})/w
    for y >= 0, zero below -w.
    """
    if w <= 0:
        raise DomainError(f"w must be > 0, got {w}")
    if mu <= 0:
        raise DomainError(f"mu must be > 0, got {mu}")
    if y < -w:
        return 0.0
    if y <= 0:
        return (1.0 - math.exp(-mu * (w + y))) / w
    return (math.exp(-mu * y) - math.exp(-mu * (w + y))) / w


def gamma_l_pdf(alpha: float, k: int, l: float) -> float:
    """Gamma(shape k, rate alpha) density: the elapsed time past k writes.

    Computed in log space so large k stays finite.
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    if k < 1 or k != int(k):
        raise DomainError(f"k must be a positive integer, got {k}")
    if l < 0:
        raise DomainError(f"l must be >= 0, got {l}")
    if l == 0.0:
        return float(alpha) if k == 1 else 0.0
    return math.exp(math.log(alpha) + (k - 1) * math.log(alpha * l) - alpha * l - math.lgamma(k))


def lemma1_cells(
    k: int, cells: list[tuple[ModelParams, float]], samples: int, seed: int
) -> list[McEstimate]:
    """Estimate P(U + X <= L) at each (params, w) cell from one shared draw.

    U ~ uniform(-w, 0), X ~ exponential(mu), L ~ Gamma(k, alpha), all
    independent. The unit-rate uniforms, exponentials and Gamma(k, 1)
    variates are drawn once on the "lemma1" stream and scaled per cell;
    dividing by a rate is exact, so each cell's hits equal a draw made at
    that cell's own rates. The target closed form is lemma1_epsilon.
    """
    if samples < 10_000:
        raise DomainError(f"samples must be >= 1e4, got {samples}")
    if k < 1 or any(w <= 0 for _, w in cells):
        raise DomainError("need k >= 1 and w > 0")
    for params, _ in cells:
        validate(params)
    rs = RandomSource(seed, "lemma1")
    unit_u = rs.uniform(samples)
    unit_x = rs.exponential(1.0, samples)
    unit_l = rs.gamma_int(k, 1.0, samples)
    out = []
    for params, w in cells:
        hits = int(np.count_nonzero(-w * unit_u + unit_x / params.mu <= unit_l / params.alpha))
        # Agresti-Coull: the plug-in se collapses to ~0 when all but a few samples agree
        p_ac = (hits + 2) / (samples + 4)
        se = math.sqrt(p_ac * (1.0 - p_ac) / (samples + 4))
        out.append(McEstimate(hits / samples, se, samples))
    return out


def mc_lemma1(params: ModelParams, k: int, w: float, samples: int, seed: int) -> McEstimate:
    """Estimate P(U + X <= L) by direct sampling: lemma1_cells at one cell."""
    return lemma1_cells(k, [(params, w)], samples, seed)[0]


def mc_p_ek(params: ModelParams, k: int, samples: int, seed: int, chunk: int = 100_000) -> McEstimate:
    """Estimate the probability that update k's grace period has ended.

    Per sample: the preceding write time w ~ exponential(alpha) fixes the
    currency window; m ~ Poisson(lam*w) readers land uniformly in it with
    exponential(mu) holds; the elapsed time L ~ Gamma(k, alpha) is shared
    by all of them. Success iff every reader released by L (vacuous for
    m = 0).
    """
    if samples < 10_000:
        raise DomainError(f"samples must be >= 1e4, got {samples}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    validate(params)
    rs = RandomSource(seed, "p_ek")
    good = 0
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        w = rs.exponential(params.alpha, n)
        m = rs.poisson(params.lam * w) if params.lam > 0 else np.zeros(n, dtype=np.int64)
        l = rs.gamma_int(k, params.alpha, n)
        total = int(m.sum())
        if total:
            wrep = np.repeat(w, m)
            y = -wrep * rs.uniform(total) + rs.exponential(params.mu, total)
            late = y > np.repeat(l, m)
            idx = np.repeat(np.arange(n), m)
            n_late = np.bincount(idx, weights=late.astype(np.float64), minlength=n)
            good += int(np.sum(n_late == 0))
        else:
            good += n
        done += n
    est = good / samples
    se = math.sqrt(est * (1.0 - est) / samples)
    return McEstimate(est, se, samples)


def p_ek_joint_quadrature(params: ModelParams, k: int) -> float:
    """P(update k's grace period ended) keeping the shared elapsed time intact.

    Integrates E_L[exp(-(lam/mu)(1 - e^{-mu w}) e^{-mu L})] over the write
    time w, where L ~ Gamma(k, alpha) is common to all residual readers of
    the update. Differs from the series form, which averages each reader's
    deadline independently and thereby overstates survival.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    validate(params)
    alpha, lam, mu = params.alpha, params.lam, params.mu
    if lam == 0:
        return 1.0

    # integrate the Gamma(k, alpha) weight over a window wide enough to hold
    # all but ~1e-12 of its mass; the integrand is bounded by 1 outside
    mean_l = k / alpha
    sd_l = math.sqrt(k) / alpha
    lo = max(0.0, mean_l - 12.0 * sd_l)
    hi = mean_l + 14.0 * sd_l
    tail_mass = 1.0 - (gammainc_reg(k, alpha * hi) - gammainc_reg(k, alpha * lo))

    def inner(w: float) -> float:
        c = (lam / mu) * (-math.expm1(-mu * w))
        f = lambda l: gamma_l_pdf(alpha, k, l) * math.exp(-c * math.exp(-mu * l))
        v = quad(f, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=200)[0]
        # survivors outside the window contribute between 0 and the tail mass
        return v + tail_mass * math.exp(-c * math.exp(-mu * hi))

    # substitute v = e^{-alpha w} so the exponential weight becomes uniform
    outer = lambda v: inner(-math.log(v) / alpha)
    return quad(outer, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)[0]


def en_joint_quadrature(params: ModelParams, tol: float = 1e-7, max_k: int = 2000) -> float:
    """Expected active updates via the shared-elapsed-time survival probabilities."""
    dp = validate(params)
    total = 1.0
    k = 0
    while True:
        k += 1
        if k > max_k:
            raise ConvergenceError("en_joint_quadrature: max_k reached; use a larger tol")
        total += 1.0 - p_ek_joint_quadrature(params, k)
        if dp.rho * dp.q**k < tol:
            return total


def i1_closed(mu: float, w: float) -> float:
    """First appendix integral: mass of Y below zero, 1 + (e^{-mu w} - 1)/(mu w)."""
    return 1.0 + math.expm1(-mu * w) / (mu * w)


def i1_numeric(mu: float, w: float) -> float:
    return quad(lambda y: fy_density(mu, w, y), -w, 0.0, epsabs=1e-12)[0]


def i3_closed(alpha: float, mu: float, k: int, w: float) -> float:
    """(1/(mu w)) * E[e^{-mu L} - 1] = ((alpha/(alpha+mu))^k - 1)/(mu w)."""
    return ((alpha / (alpha + mu)) ** k - 1.0) / (mu * w)


def i3_numeric(alpha: float, mu: float, k: int, w: float) -> float:
    f = lambda l: gamma_l_pdf(alpha, k, l) * (math.exp(-mu * l) - 1.0)
    return quad(f, 0.0, math.inf, epsabs=1e-12, limit=200)[0] / (mu * w)


def i4_closed(alpha: float, mu: float, k: int, w: float) -> float:
    """e^{-mu w}/(mu w) * ((alpha/(alpha+mu))^k - 1)."""
    return math.exp(-mu * w) * ((alpha / (alpha + mu)) ** k - 1.0) / (mu * w)


def i4_numeric(alpha: float, mu: float, k: int, w: float) -> float:
    f = lambda l: gamma_l_pdf(alpha, k, l) * (math.exp(-mu * (w + l)) - math.exp(-mu * w))
    return quad(f, 0.0, math.inf, epsabs=1e-12, limit=200)[0] / (mu * w)


def lemma1_numeric(alpha: float, mu: float, k: int, w: float) -> float:
    """P(Y <= L) as one integral of fy_density against the deadline's survival.

    By Fubini, P(Y <= L) = int_{-w}^0 f_Y + int_0^inf f_Y(y) P(L > y) dy with
    P(L > y) = Q(k, alpha y), the regularized upper incomplete gamma function.
    End-to-end recomputation of the appendix result 1 - a_w q^k.
    """
    neg = quad(lambda y: fy_density(mu, w, y), -w, 0.0, epsabs=1e-13, epsrel=1e-13)[0]
    f = lambda y: fy_density(mu, w, y) * gammaincc(k, alpha * y)
    return neg + quad(f, 0.0, math.inf, epsabs=1e-13, epsrel=1e-13, limit=200)[0]


def fy_normalization(mu: float, w: float) -> float:
    """Total mass of fy_density (should be 1)."""
    neg = quad(lambda y: fy_density(mu, w, y), -w, 0.0, epsabs=1e-12)[0]
    pos = quad(lambda y: fy_density(mu, w, y), 0.0, math.inf, epsabs=1e-12, limit=200)[0]
    return neg + pos


def appendix_identity_checks(grid=None) -> list[tuple[str, float, float, float]]:
    """Recompute the appendix integrals numerically against their closed forms.

    Returns (name, numeric, closed, abs_error) tuples over the grid of
    (alpha, mu, k, w) combinations.
    """
    if grid is None:
        grid = [
            (alpha, mu, k, w)
            for alpha in (0.5, 1.0, 2.0)
            for mu in (0.5, 1.0, 2.0)
            for k in (1, 2, 5)
            for w in (0.1, 1.0, 5.0)
        ]
    out = []
    for alpha, mu, k, w in grid:
        tag = f"(alpha={alpha}, mu={mu}, k={k}, w={w})"
        n1, c1 = i1_numeric(mu, w), i1_closed(mu, w)
        out.append((f"I1 {tag}", n1, c1, abs(n1 - c1)))
        n3, c3 = i3_numeric(alpha, mu, k, w), i3_closed(alpha, mu, k, w)
        out.append((f"I3 {tag}", n3, c3, abs(n3 - c3)))
        n4, c4 = i4_numeric(alpha, mu, k, w), i4_closed(alpha, mu, k, w)
        out.append((f"I4 {tag}", n4, c4, abs(n4 - c4)))
        nl = lemma1_numeric(alpha, mu, k, w)
        cl = lemma1_epsilon(ModelParams(alpha, 1.0, mu), k, w)
        out.append((f"Lemma1 {tag}", nl, cl, abs(nl - cl)))
        nn = fy_normalization(mu, w)
        out.append((f"fY-norm {tag}", nn, 1.0, abs(nn - 1.0)))
    return out
