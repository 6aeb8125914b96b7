"""Independent oracles for the closed-form results.

Monte Carlo estimators rebuild the probabilistic construction behind the
grace-period survival probabilities from raw uniforms, and quadrature
recomputes the densities and integrals used in deriving them. These are
test infrastructure: slower than the analytics module, and sharing with it
only numpy's Gauss-Legendre nodes, laid out on panels by
core._legendre_panels; the integrands and changes of variable are their own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConvergenceError, DomainError, ModelParams, RandomSource, _float_or_array, _legendre_panels, validate
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


def _log_gamma(k: float) -> float:
    """ln Gamma(k) for k >= 1; math.gamma is exact at the integers to 23, where math.lgamma is not (lgamma(3) != ln 2)."""
    return math.log(math.gamma(k)) if k < 171.0 else math.lgamma(k)


def gamma_l_pdf(alpha, k, l):
    """Gamma(shape k, rate alpha) density: the elapsed time past k writes.

    Computed in log space so large k stays finite, with ln Gamma(k) taken
    once per element of k. Broadcasts over arrays; a scalar call returns a
    float.
    """
    alpha, k, l = np.asarray(alpha, dtype=float), _shape(k), np.asarray(l, dtype=float)
    _require(alpha > 0, "alpha must be > 0", alpha)
    _require(l >= 0, "l must be >= 0", l)
    x = alpha * l
    log_gamma_k = np.vectorize(_log_gamma, otypes=[float])(k)
    # (k - 1) ln x, which is 0 at k = 1 and -inf at x = 0 otherwise
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(k == 1.0, 0.0, (k - 1.0) * np.log(x))
    return _float_or_array(alpha * np.exp(power - x - log_gamma_k))


# samples (lemma1_cells) or readers (mc_p_ek) per block: each block's passes stay in cache
_BLOCK = 1 << 14


def lemma1_cells(
    k: int, cells: list[tuple[ModelParams, float]], samples: int, seed: int
) -> list[McEstimate]:
    """Estimate P(U + X <= L) at each (params, w) cell from one shared draw.

    U ~ uniform(-w, 0), X ~ exponential(mu), L ~ Gamma(k, alpha), all
    independent. The unit-rate uniforms, exponentials and Gamma(k, 1)
    variates are drawn once on the "lemma1" stream, _BLOCK samples at a
    time from three split sources, and scaled per block once per distinct
    (w, mu) pair and alpha; dividing by a rate is exact, so each cell's hits
    equal a draw made at that cell's own rates, and memory does not grow
    with `samples`. The target closed form is lemma1_epsilon.
    """
    if samples < 10_000:
        raise DomainError(f"samples must be >= 1e4, got {samples}")
    if k < 1 or any(not w > 0 for _, w in cells):
        raise DomainError("need k >= 1 and w > 0")
    for params, _ in cells:
        validate(params)
    u_src, x_src, l_src = RandomSource(seed, "lemma1").split(samples, samples, k * samples)
    pairs = {(w, p.mu) for p, w in cells}
    alphas = {p.alpha for p, _ in cells}
    hits = dict.fromkeys(((w, p.mu, p.alpha) for p, w in cells), 0)
    for done in range(0, samples, _BLOCK):
        n = min(_BLOCK, samples - done)
        unit_u = u_src.uniform(n)
        unit_x = x_src.exponential(1.0, n)
        unit_l = l_src.gamma_int(k, 1.0, n)
        l = {alpha: unit_l / alpha for alpha in alphas}
        for w, mu in pairs:
            y = -w * unit_u + unit_x / mu
            for alpha in alphas:
                if (w, mu, alpha) in hits:
                    hits[w, mu, alpha] += int(np.count_nonzero(y <= l[alpha]))
    out = []
    for params, w in cells:
        h = hits[w, params.mu, params.alpha]
        # Agresti-Coull: the plug-in se collapses to ~0 when all but a few samples agree
        p_ac = (h + 2) / (samples + 4)
        se = math.sqrt(p_ac * (1.0 - p_ac) / (samples + 4))
        out.append(McEstimate(h / samples, se, samples))
    return out


# w, m and L for a chunk of samples, then its readers' U and E, take their
# segments of the one "p_ek" stream in turn, so the chunk size fixes every
# draw: another size re-draws every estimate. The blocks inside a chunk do
# not: each draw comes from a source split at its segment's start, or, for
# the Poisson counts, from the stream itself in sample order.
_P_EK_CHUNK = 100_000


def mc_p_ek(params: ModelParams, k: int, samples: int, seed: int) -> McEstimate:
    """Estimate the probability that update k's grace period has ended.

    Per sample: the preceding write time w ~ exponential(alpha) fixes the
    currency window; m ~ Poisson(lam*w) readers land uniformly in it with
    exponential(mu) holds; the elapsed time L ~ Gamma(k, alpha) is shared
    by all of them. Success iff the latest reader release is by L
    (vacuous for m = 0), so only one maximum per sample is kept.

    Of a chunk only the reader offsets, one int64 per sample, are held
    whole: the counts m are drawn _BLOCK samples at a time and summed into
    them in place. w is drawn twice, from two sources split at the chunk
    start: once for those counts, and once with L for each block of at
    most _BLOCK samples and about _BLOCK readers. Every draw is the one a
    whole-chunk draw gives, and the traced peak (1.6 MiB at lam = 10) does
    not grow with `samples`, so validate's pool can run this beside its
    other checks.
    """
    if samples < 10_000:
        raise DomainError(f"samples must be >= 1e4, got {samples}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    validate(params)
    rs = RandomSource(seed, "p_ek")
    bad = 0
    for done in range(0, samples, _P_EK_CHUNK):
        n = min(_P_EK_CHUNK, samples - done)
        w_src, w_again = rs.split(0, n)
        ends = np.zeros(n, dtype=np.int64)
        if params.lam > 0:
            for a in range(0, n, _BLOCK):
                seg = ends[a : a + _BLOCK]
                np.cumsum(rs.poisson(params.lam * w_src.exponential(params.alpha, len(seg))), out=seg)
                if a:
                    seg += ends[a - 1]
        total = int(ends[-1])
        l_src, u_src, e_src = rs.split(k * n, total, total)
        # block j ends at the first sample whose readers reach (j + 1) * _BLOCK,
        # and at every _BLOCK-th sample; a repeated cut gives an empty block
        cuts = np.sort(np.concatenate((
            np.searchsorted(ends, np.arange(_BLOCK, total, _BLOCK), side="left") + 1,
            np.arange(_BLOCK, n, _BLOCK),
        )))
        for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), n]):
            if a >= b:
                continue
            w = w_again.exponential(params.alpha, b - a)
            l = l_src.gamma_int(k, params.alpha, b - a)
            first = int(ends[a - 1]) if a else 0
            count = int(ends[b - 1]) - first
            mb = np.diff(ends[a:b], prepend=first)
            # release y = E - U*w per reader, in place; bit-identical to -w*U + E
            y = u_src.uniform(count)
            y *= np.repeat(w, mb)
            np.subtract(e_src.exponential(params.mu, count), y, out=y)
            busy = mb > 0
            latest = np.maximum.reduceat(y, (ends[a:b] - mb - first)[busy])
            bad += int(np.count_nonzero(latest > l[busy]))
    est = (samples - bad) / samples
    se = math.sqrt(est * (1.0 - est) / samples)
    return McEstimate(est, se, samples)


def _dyadic_legendre(nodes: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, 1], flattened (core._legendre_panels).

    Panels [2^-j, 2^(1-j)] for j = 1..panels-1 and [0, 2^(1-panels)], each
    with the same number of nodes, so every doubling of scale up to 1 is
    resolved alike.
    """
    edges = np.concatenate(([0.0], np.exp2(np.arange(1.0 - panels, 1.0))))
    x, wt = _legendre_panels(edges, nodes)
    return x.ravel(), wt.ravel()


# 16 nodes on each of 41 panels. A scale below the smallest panel, 2^-40 of
# the end, holds about that panel's share of the integral: I3 at k = 1 stays
# within 3e-13 relative for mu/alpha from 1e-7 to 1e16. The Gamma(k, 1) peak,
# sqrt(k) wide, falls in a panel about k wide: within 1e-13 relative to
# k = 50 and 4e-12 at k = 100, losing digits beyond (8e-5 at k = 1000), so
# the numerics that integrate against it take k <= _MAX_RULE_K alone.
_X, _W = _dyadic_legendre(16, 41)
_MAX_RULE_K = 50


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


def _rule_shape(k) -> np.ndarray:
    """_shape(k), with DomainError past _MAX_RULE_K, where the rule loses the Gamma(k, 1) peak."""
    k = _shape(k)
    _require(k <= _MAX_RULE_K, f"k must be <= {_MAX_RULE_K} for the composite rule", k)
    return k


# 32 nodes on each of 61 panels, for both variables of p_ek_joint_quadrature:
# the (16, 41) rule is 2e-7 off at (alpha, lam, mu) = (7.08e-5, 3.82e5, 7.34e-5), k = 36
_JOINT = _dyadic_legendre(32, 61)


def p_ek_joint_quadrature(params: ModelParams, k: int) -> float:
    """P(update k's grace period ended) keeping the shared elapsed time intact.

    Integrates E_L[exp(-(lam/mu)(1 - e^{-mu w}) e^{-mu L})] over the write
    time w ~ exponential(alpha), where L ~ Gamma(k, alpha) is common to all
    residual readers of the update. Differs from the series form, which
    averages each reader's deadline independently and thereby overstates
    survival. Over t = alpha w on [0, 64] (the rest is below e^-64) and
    s = alpha L on [0, _gamma_end(k)], as one tensor product of the _JOINT
    rule. Takes k <= _MAX_RULE_K; ConvergenceError where lam/mu overflows.
    """
    k = float(_rule_shape(k))
    validate(params)
    m, rho = params.mu / params.alpha, params.lam / params.mu
    if math.isinf(rho):
        raise ConvergenceError("p_ek_joint_quadrature: lam/mu overflows")
    x, wt = _JOINT
    t, end = 64.0 * x, float(_gamma_end(k))
    s = end * x
    # exp(-rho (1 - e^{-m t}) e^{-m s}), one row per t node, exponentiated in place
    f = np.multiply.outer(rho * np.expm1(-m * t), np.exp(-m * s))
    np.exp(f, out=f)
    inner = f @ (gamma_l_pdf(1.0, k, s) * wt) * end
    return float(np.exp(-t) * wt @ inner * 64.0)


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


def _ratio_and_rate(mu: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, r): c = mu/alpha, inf where it passes the float range, and r = alpha where c < 1, else mu.

    r is the rate that divides _expm1_scaled(c, t), which is expm1(-c t)
    times r/mu.
    """
    with np.errstate(over="ignore"):
        c = mu / alpha
    return c, np.where(c < 1.0, alpha, mu)


def _expm1_scaled(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """expm1(-c t) at the rule's nodes t, on a trailing axis, over c where c < 1.

    Where c < 1 it may be subnormal and so short of bits; divided out, it
    no longer scales the result, and below x = c t = 1e-5 the quotient is
    -t (1 - x/2 + x^2/6), whose next term is under 5e-17 relative, so c
    enters only that correction. Elsewhere c may be inf, and expm1 takes
    its limit -1.
    """
    c = c[..., None]
    with np.errstate(over="ignore"):
        x = c * t
    g = np.expm1(-x)
    scaled = c < 1.0
    np.divide(g, c, out=g, where=scaled & (x >= 1e-5))
    series = scaled & (x < 1e-5)
    xs = np.where(series, x, 0.0)
    return np.where(series, -t * (1.0 - xs / 2.0 + xs * xs / 6.0), g)


def i3_numeric(alpha, mu, k, w):
    """I3 = int_0^inf f_L(l) (e^{-mu l} - 1) dl / (mu w), over t = alpha l; k <= _MAX_RULE_K."""
    alpha, mu, w = _positive(alpha=alpha, mu=mu, w=w)
    c, r = _ratio_and_rate(mu, alpha)
    kc = _rule_shape(k)[..., None]
    v = _integral(lambda t: gamma_l_pdf(1.0, kc, t) * _expm1_scaled(c, t), _gamma_end(k))
    return _float_or_array(v / (r * w))


def i4_closed(alpha: float, mu: float, k: int, w: float) -> float:
    """e^{-mu w}/(mu w) * ((alpha/(alpha+mu))^k - 1)."""
    return math.exp(-mu * w) * _qk_minus_1(alpha, mu, k) / (mu * w)


def i4_numeric(alpha, mu, k, w):
    """I4 = int_0^inf f_L(l) (e^{-mu (w + l)} - e^{-mu w}) dl / (mu w), over t = alpha l; k <= _MAX_RULE_K."""
    alpha, mu, w = _positive(alpha=alpha, mu=mu, w=w)
    c, r = _ratio_and_rate(mu, alpha)
    e, kc = np.exp(-mu * w)[..., None], _rule_shape(k)[..., None]
    v = _integral(lambda t: gamma_l_pdf(1.0, kc, t) * (e * _expm1_scaled(c, t)), _gamma_end(k))
    return _float_or_array(v / (r * w))


def _gamma_q(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q(k, x) = sum_{j<k} e^{-x} x^j / j! for integer k >= 1 and x >= 0 (DLMF 8.4.10), each term in log space."""
    with np.errstate(divide="ignore"):  # x underflows to 0 when alpha << mu; ln 0 = -inf drops the j >= 1 terms
        log_x = np.log(x)
    q = np.exp(-x) + np.zeros_like(k)
    for j in range(1, int(k.max())):
        q += np.where(j < k, np.exp(j * log_x - x - _log_gamma(j + 1.0)), 0.0)
    return q


def lemma1_numeric(alpha, mu, k, w):
    """P(Y <= L) as one integral of fy_density against the deadline's survival.

    By Fubini, P(Y <= L) = int_{-w}^0 f_Y + int_0^inf f_Y(y) P(L > y) dy with
    P(L > y) = Q(k, alpha y), the regularized upper incomplete gamma function
    (_gamma_q).
    The second integral is taken over t = (alpha + mu) y, the decay rate of
    f_Y Q; past T = _gamma_end(k) it drops at most P(X > y, L > y) =
    e^{-mu y} Q(k, alpha y) <= Q(k, T). End-to-end recomputation of the
    appendix result 1 - a_w q^k. Takes k <= _MAX_RULE_K.
    """
    alpha, mu, w = _positive(alpha=alpha, mu=mu, w=w)
    s = alpha + mu
    sc, pc, muc, wc = (a[..., None] for a in (s, alpha / s, mu, w))
    kc = _rule_shape(k)[..., None]
    pos = _integral(lambda t: fy_density(muc, wc, t / sc) * _gamma_q(kc, pc * t), _gamma_end(k)) / s
    return _float_or_array(i1_numeric(mu, w) + pos)


def fy_normalization(mu, w):
    """Total mass of fy_density (should be 1): i1_numeric plus the mass above zero, over t = mu y."""
    mu, w = _positive(mu=mu, w=w)
    muc, wc = mu[..., None], w[..., None]
    pos = _integral(lambda t: fy_density(muc, wc, t / muc), _gamma_end(1.0)) / mu
    return _float_or_array(i1_numeric(mu, w) + pos)


# grid rows per array call: the numerics' temporaries are rows x 656 nodes, so
# the 81-row default grid in one call peaked at 2.9 MiB and 27 rows peak at
# 1.0 MiB; rows do not interact, so any slicing gives the same values
_APPENDIX_ROWS = 27


def appendix_identity_checks(grid=None) -> list[tuple[str, float, float, float]]:
    """Recompute the appendix integrals numerically against their closed forms.

    Returns (name, numeric, closed, abs_error) tuples over the grid of
    (alpha, mu, k, w) combinations; each numeric is one array call per
    slice of _APPENDIX_ROWS grid rows.
    """
    if grid is None:
        grid = [
            (alpha, mu, k, w)
            for alpha in (0.5, 1.0, 2.0)
            for mu in (0.5, 1.0, 2.0)
            for k in (1, 2, 5)
            for w in (0.1, 1.0, 5.0)
        ]
    rows = np.array(grid, dtype=float).reshape(-1, 4)
    numeric = []
    for i in range(0, len(rows), _APPENDIX_ROWS):
        alpha, mu, k, w = rows[i : i + _APPENDIX_ROWS].T
        numeric += zip(
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
