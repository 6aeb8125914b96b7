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
from scipy.special import gammainc as gammainc_reg, gammaincc, gammaln, xlogy

from .core import ConvergenceError, DomainError, ModelParams, RandomSource, validate
from .analytics import lemma1_epsilon


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    samples: int


def _require(ok: np.ndarray, what: str, value) -> None:
    """DomainError unless ok holds at every element; NaN fails every comparison."""
    if not ok.all():
        raise DomainError(f"{what}, got {value}")


def _float_or_array(a: np.ndarray):
    return float(a) if a.ndim == 0 else a


def _shape(k) -> np.ndarray:
    """The Gamma shape k as a float array; DomainError unless every element is a positive integer."""
    k = np.asarray(k, dtype=float)
    _require((k >= 1) & (k < np.inf) & (k == np.floor(k)), "k must be a positive integer", k)
    return k


def fy_density(mu, w, y):
    """Density of Y = U + X with U uniform(-w, 0) and X exponential(mu).

    Piecewise: (1 - e^{-mu(w+y)})/w on [-w, 0], e^{-mu y} (1 - e^{-mu w})/w
    for y >= 0, zero below -w: one product of e^{-mu max(y, 0)} and
    1 - e^{-mu max(w + min(y, 0), 0)}; expm1 keeps the second exact when
    mu w is small.
    Broadcasts over arrays; a scalar call returns a float.
    """
    mu, w, y = (np.asarray(a, dtype=float) for a in (mu, w, y))
    _require(w > 0, "w must be > 0", w)
    _require(mu > 0, "mu must be > 0", mu)
    _require(~np.isnan(y), "y must be a number", y)
    # each exponent clipped to its own side of 0, so neither can overflow
    rise = -np.expm1(-mu * np.maximum(w + np.minimum(y, 0.0), 0.0))
    return _float_or_array(np.exp(-mu * np.maximum(y, 0.0)) * rise / w)


def gamma_l_pdf(alpha, k, l):
    """Gamma(shape k, rate alpha) density: the elapsed time past k writes.

    Computed in log space so large k stays finite. Broadcasts over arrays;
    a scalar call returns a float.
    """
    alpha, k, l = np.asarray(alpha, dtype=float), _shape(k), np.asarray(l, dtype=float)
    _require(alpha > 0, "alpha must be > 0", alpha)
    _require(l >= 0, "l must be >= 0", l)
    x = alpha * l
    return _float_or_array(alpha * np.exp(xlogy(k - 1.0, x) - x - gammaln(k)))


def lemma1_cells(
    k: int, cells: list[tuple[ModelParams, float]], samples: int, seed: int
) -> list[McEstimate]:
    """Estimate P(U + X <= L) at each (params, w) cell from one shared draw.

    U ~ uniform(-w, 0), X ~ exponential(mu), L ~ Gamma(k, alpha), all
    independent. The unit-rate uniforms, exponentials and Gamma(k, 1)
    variates are drawn once on the "lemma1" stream and scaled once per
    distinct w, mu and alpha; dividing by a rate is exact, so each cell's
    hits equal a draw made at that cell's own rates. The target closed form
    is lemma1_epsilon.
    """
    if samples < 10_000:
        raise DomainError(f"samples must be >= 1e4, got {samples}")
    if k < 1 or any(not w > 0 for _, w in cells):
        raise DomainError("need k >= 1 and w > 0")
    for params, _ in cells:
        validate(params)
    rs = RandomSource(seed, "lemma1")
    unit_u = rs.uniform(samples)
    unit_x = rs.exponential(1.0, samples)
    unit_l = rs.gamma_int(k, 1.0, samples)
    neg_u = {w: -w * unit_u for w in {w for _, w in cells}}
    x = {mu: unit_x / mu for mu in {p.mu for p, _ in cells}}
    l = {alpha: unit_l / alpha for alpha in {p.alpha for p, _ in cells}}
    out = []
    for params, w in cells:
        hits = int(np.count_nonzero(neg_u[w] + x[params.mu] <= l[params.alpha]))
        # Agresti-Coull: the plug-in se collapses to ~0 when all but a few samples agree
        p_ac = (hits + 2) / (samples + 4)
        se = math.sqrt(p_ac * (1.0 - p_ac) / (samples + 4))
        out.append(McEstimate(hits / samples, se, samples))
    return out


def mc_lemma1(params: ModelParams, k: int, w: float, samples: int, seed: int) -> McEstimate:
    """Estimate P(U + X <= L) by direct sampling: lemma1_cells at one cell."""
    return lemma1_cells(k, [(params, w)], samples, seed)[0]


# w, m, L, U and E interleave on the one "p_ek" stream per chunk: another size re-draws every estimate
_P_EK_CHUNK = 100_000


def mc_p_ek(params: ModelParams, k: int, samples: int, seed: int) -> McEstimate:
    """Estimate the probability that update k's grace period has ended.

    Per sample: the preceding write time w ~ exponential(alpha) fixes the
    currency window; m ~ Poisson(lam*w) readers land uniformly in it with
    exponential(mu) holds; the elapsed time L ~ Gamma(k, alpha) is shared
    by all of them. Success iff the latest reader release is by L
    (vacuous for m = 0), so only one maximum per sample is kept.
    """
    if samples < 10_000:
        raise DomainError(f"samples must be >= 1e4, got {samples}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    validate(params)
    rs = RandomSource(seed, "p_ek")
    good = 0
    for done in range(0, samples, _P_EK_CHUNK):
        n = min(_P_EK_CHUNK, samples - done)
        w = rs.exponential(params.alpha, n)
        m = rs.poisson(params.lam * w) if params.lam > 0 else np.zeros(n, dtype=np.int64)
        l = rs.gamma_int(k, params.alpha, n)
        total = int(m.sum())
        # release y = E - U*w per reader, in place; bit-identical to -w*U + E
        y = rs.uniform(total)
        y *= np.repeat(w, m)
        np.subtract(rs.exponential(params.mu, total), y, out=y)
        busy = m > 0
        latest = np.maximum.reduceat(y, (np.cumsum(m) - m)[busy])
        good += n - int(np.count_nonzero(latest > l[busy]))
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


def _dyadic_legendre(nodes: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, 1] (DLMF 3.5(v)).

    Panels [2^-j, 2^(1-j)] for j = 1..panels-1 and [0, 2^(1-panels)], each
    with the same number of nodes, so every doubling of scale up to 1 is
    resolved alike.
    """
    x, wt = np.polynomial.legendre.leggauss(nodes)
    edges = np.concatenate(([0.0], np.exp2(np.arange(1.0 - panels, 1.0))))
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * wt).ravel()


# 16 nodes on each of 41 panels. A scale below the smallest panel, 2^-40 of
# the end, holds about that panel's share of the integral: I3 at k = 1 stays
# within 3e-13 relative for mu/alpha from 1e-7 to 1e16. The Gamma(k, 1) peak,
# sqrt(k) wide, falls in a panel about k wide: within 1e-13 relative to
# k = 50 and 4e-12 at k = 100, losing digits beyond.
_X, _W = _dyadic_legendre(16, 41)


def _integral(f, end) -> np.ndarray:
    """int_0^end f(t) dt by the rule _X, _W stretched to [0, end], one end per element.

    f takes the nodes with one trailing axis; the sum runs along that axis
    alone, so each element's result does not depend on the others.
    """
    end = np.asarray(end, dtype=float)
    return np.sum(f(end[..., None] * _X) * _W, axis=-1) * end


def _gamma_end(k) -> np.ndarray:
    """A power of two T >= 2k + 40 sqrt(k) + 100, past which Gamma(k, 1) has mass below 1e-17.

    Chernoff: Q(k, T) <= exp(-k h(T/k)) with h(x) = x - 1 - ln x; with
    d = T - k, k h(T/k) >= d^2/(2T), which grows with T and is at least 40
    at that floor, and e^-40 = 4.2e-18.
    """
    k = _shape(k)
    return np.exp2(np.ceil(np.log2(2.0 * k + 40.0 * np.sqrt(k) + 100.0)))


def _positive(**rates) -> list[np.ndarray]:
    """Each rate as a float array; DomainError unless every element is > 0."""
    out = []
    for name, a in rates.items():
        a = np.asarray(a, dtype=float)
        _require(a > 0, f"{name} must be > 0", a)
        out.append(a)
    return out


def i1_closed(mu: float, w: float) -> float:
    """First appendix integral: mass of Y below zero, 1 + (e^{-mu w} - 1)/(mu w)."""
    return 1.0 + math.expm1(-mu * w) / (mu * w)


def i1_numeric(mu, w):
    """int_{-w}^0 f_Y, over u = 1 + y/w in [0, 1]: f_Y rises on the scale 1/(mu w) from u = 0."""
    mu, w = (a[..., None] for a in _positive(mu=mu, w=w))
    return _float_or_array(_integral(lambda u: w * fy_density(mu, w, w * (u - 1.0)), 1.0))


def _qk_minus_1(alpha: float, mu: float, k: int) -> float:
    """(alpha/(alpha+mu))^k - 1 as expm1(-k log1p(mu/alpha)), which does not cancel when mu << alpha."""
    return math.expm1(-k * math.log1p(mu / alpha))


def i3_closed(alpha: float, mu: float, k: int, w: float) -> float:
    """(1/(mu w)) * E[e^{-mu L} - 1] = ((alpha/(alpha+mu))^k - 1)/(mu w)."""
    return _qk_minus_1(alpha, mu, k) / (mu * w)


def i3_numeric(alpha, mu, k, w):
    """I3 = int_0^inf f_L(l) (e^{-mu l} - 1) dl / (mu w), over t = alpha l."""
    alpha, mu, w = _positive(alpha=alpha, mu=mu, w=w)
    c, kc = (mu / alpha)[..., None], _shape(k)[..., None]
    v = _integral(lambda t: gamma_l_pdf(1.0, kc, t) * np.expm1(-c * t), _gamma_end(k))
    return _float_or_array(v / (mu * w))


def i4_closed(alpha: float, mu: float, k: int, w: float) -> float:
    """e^{-mu w}/(mu w) * ((alpha/(alpha+mu))^k - 1)."""
    return math.exp(-mu * w) * _qk_minus_1(alpha, mu, k) / (mu * w)


def i4_numeric(alpha, mu, k, w):
    """I4 = int_0^inf f_L(l) (e^{-mu (w + l)} - e^{-mu w}) dl / (mu w), over t = alpha l."""
    alpha, mu, w = _positive(alpha=alpha, mu=mu, w=w)
    c, e, kc = (mu / alpha)[..., None], np.exp(-mu * w)[..., None], _shape(k)[..., None]
    v = _integral(lambda t: gamma_l_pdf(1.0, kc, t) * (e * np.expm1(-c * t)), _gamma_end(k))
    return _float_or_array(v / (mu * w))


def lemma1_numeric(alpha, mu, k, w):
    """P(Y <= L) as one integral of fy_density against the deadline's survival.

    By Fubini, P(Y <= L) = int_{-w}^0 f_Y + int_0^inf f_Y(y) P(L > y) dy with
    P(L > y) = Q(k, alpha y), the regularized upper incomplete gamma function.
    The second integral is taken over t = (alpha + mu) y, the decay rate of
    f_Y Q; past T = _gamma_end(k) it drops at most P(X > y, L > y) =
    e^{-mu y} Q(k, alpha y) <= Q(k, T). End-to-end recomputation of the
    appendix result 1 - a_w q^k.
    """
    alpha, mu, w = _positive(alpha=alpha, mu=mu, w=w)
    s = alpha + mu
    sc, pc, muc, wc = (a[..., None] for a in (s, alpha / s, mu, w))
    kc = _shape(k)[..., None]
    pos = _integral(lambda t: fy_density(muc, wc, t / sc) * gammaincc(kc, pc * t), _gamma_end(k)) / s
    return _float_or_array(i1_numeric(mu, w) + pos)


def fy_normalization(mu, w):
    """Total mass of fy_density (should be 1): i1_numeric plus the mass above zero, over t = mu y."""
    mu, w = _positive(mu=mu, w=w)
    muc, wc = mu[..., None], w[..., None]
    pos = _integral(lambda t: fy_density(muc, wc, t / muc), _gamma_end(1.0)) / mu
    return _float_or_array(i1_numeric(mu, w) + pos)


def appendix_identity_checks(grid=None) -> list[tuple[str, float, float, float]]:
    """Recompute the appendix integrals numerically against their closed forms.

    Returns (name, numeric, closed, abs_error) tuples over the grid of
    (alpha, mu, k, w) combinations; each numeric is one array call over the
    whole grid.
    """
    if grid is None:
        grid = [
            (alpha, mu, k, w)
            for alpha in (0.5, 1.0, 2.0)
            for mu in (0.5, 1.0, 2.0)
            for k in (1, 2, 5)
            for w in (0.1, 1.0, 5.0)
        ]
    alpha, mu, k, w = np.array(grid, dtype=float).reshape(-1, 4).T
    numeric = zip(
        i1_numeric(mu, w).tolist(),
        i3_numeric(alpha, mu, k, w).tolist(),
        i4_numeric(alpha, mu, k, w).tolist(),
        lemma1_numeric(alpha, mu, k, w).tolist(),
        fy_normalization(mu, w).tolist(),
    )
    out = []
    for (alpha, mu, k, w), (n1, n3, n4, nl, nn) in zip(grid, numeric):
        tag = f"(alpha={alpha}, mu={mu}, k={k}, w={w})"
        c1 = i1_closed(mu, w)
        out.append((f"I1 {tag}", n1, c1, abs(n1 - c1)))
        c3 = i3_closed(alpha, mu, k, w)
        out.append((f"I3 {tag}", n3, c3, abs(n3 - c3)))
        c4 = i4_closed(alpha, mu, k, w)
        out.append((f"I4 {tag}", n4, c4, abs(n4 - c4)))
        cl = lemma1_epsilon(ModelParams(alpha, 1.0, mu), k, w)
        out.append((f"Lemma1 {tag}", nl, cl, abs(nl - cl)))
        out.append((f"fY-norm {tag}", nn, 1.0, abs(nn - 1.0)))
    return out
