"""Independent oracles for the closed-form results.

Monte Carlo estimators rebuild the probabilistic construction behind the
grace-period survival probabilities from raw uniforms, and quadrature
recomputes the densities and integrals used in deriving them. These are
test infrastructure: slower than the analytics module, and sharing with it
only numpy's Gauss-Legendre nodes, laid out on panels by
core._legendre_panels; the integrands and changes of variable are their own.
checks() is `rcumem validate`'s battery of them against the closed forms.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ConvergenceError, DomainError, ModelParams, RandomSource, _float_or_array, _legendre_panels, validate
from .analytics import lemma1_epsilon, p_ek_quadrature, p_ek_series


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


# samples (lemma1_cells_by_k) or readers (mc_p_ek) per block: each block's passes stay in cache
_BLOCK = 1 << 14


def lemma1_cells_by_k(
    ks, cells: list[tuple[ModelParams, float]], samples: int, seed: int
) -> list[list[McEstimate]]:
    """Estimate P(U + X <= L) at each (params, w) cell for each k in ks, from one pass.

    U ~ uniform(-w, 0), X ~ exponential(mu), L ~ Gamma(k, alpha), all
    independent. On the "lemma1" stream the unit-rate uniforms take the
    first `samples` draws and the exponentials the next; each k's
    Gamma(k, 1) variates start after them, from a source of its own, as a
    draw for that k alone would. They come _BLOCK samples at a time: Y is
    built once per block and distinct (w, mu) pair and serves every k, and
    L is scaled once per k and alpha. Dividing by a rate is exact, so each
    cell's hits equal a draw made at that cell's own rates, and memory does
    not grow with `samples`. Returns one list per k, in cell order. The
    target closed form is lemma1_epsilon.
    """
    if samples < 10_000:
        raise DomainError(f"samples must be >= 1e4, got {samples}")
    if any(k < 1 for k in ks) or any(not w > 0 for _, w in cells):
        raise DomainError("need k >= 1 and w > 0")
    for params, _ in cells:
        validate(params)
    # sources at offsets 0, samples, and 2 samples once per k
    u_src, x_src, *l_srcs = RandomSource(seed, "lemma1").split(samples, samples, *(0 for _ in ks))
    pairs = list(dict.fromkeys((w, p.mu) for p, w in cells))
    alphas = list(dict.fromkeys(p.alpha for p, _ in cells))
    hits = [dict.fromkeys(((w, p.mu, p.alpha) for p, w in cells), 0) for _ in ks]
    for done in range(0, samples, _BLOCK):
        n = min(_BLOCK, samples - done)
        unit_u = u_src.uniform(n)
        unit_x = x_src.exponential(1.0, n)
        ys = [(w, mu, -w * unit_u + unit_x / mu) for w, mu in pairs]
        del unit_u, unit_x
        for k, l_src, h in zip(ks, l_srcs, hits):
            _count_hits(h, ys, l_src.gamma_int(k, 1.0, n), alphas)
        del ys  # before the next block's are built

    def estimate(count: int) -> McEstimate:
        # Agresti-Coull: the plug-in se collapses to ~0 when all but a few samples agree
        p_ac = (count + 2) / (samples + 4)
        return McEstimate(count / samples, math.sqrt(p_ac * (1.0 - p_ac) / (samples + 4)), samples)

    return [[estimate(h[w, p.mu, p.alpha]) for p, w in cells] for h in hits]


def _count_hits(hits: dict, ys: list, unit_l: np.ndarray, alphas: list) -> None:
    """Add to each hits[w, mu, alpha] the block's samples with Y <= L = unit_l / alpha.

    Its L arrays are freed on return, before the next k's draw.
    """
    for alpha in alphas:
        l = unit_l / alpha
        for w, mu, y in ys:
            if (w, mu, alpha) in hits:
                hits[w, mu, alpha] += int(np.count_nonzero(y <= l))


def lemma1_cells(
    k: int, cells: list[tuple[ModelParams, float]], samples: int, seed: int
) -> list[McEstimate]:
    """lemma1_cells_by_k at the one shape k: P(U + X <= L) at each (params, w) cell."""
    return lemma1_cells_by_k((k,), cells, samples, seed)[0]


# w, m and L for a chunk of samples, then its readers' U and E, take their
# segments of the one "p_ek" stream in turn, so the chunk size fixes every
# draw: another size re-draws every estimate. The blocks inside a chunk do
# not: each draw comes from a source split at its segment's start, or, for
# w and the Poisson counts, from the stream itself in sample order.
_P_EK_CHUNK = 100_000


def mc_p_ek(params: ModelParams, k: int, samples: int, seed: int) -> McEstimate:
    """Estimate the probability that update k's grace period has ended.

    Per sample: the preceding write time w ~ exponential(alpha) fixes the
    currency window; m ~ Poisson(lam*w) readers land uniformly in it with
    exponential(mu) holds; the elapsed time L ~ Gamma(k, alpha) is shared
    by all of them. Success iff the latest reader release is by L
    (vacuous for m = 0), so only one maximum per sample is kept.

    Of a chunk only w and the reader offsets, one double and one int64 per
    sample, are held whole: w is drawn once, the counts m are drawn
    _BLOCK samples at a time from slices of it and summed into the offsets
    in place, and L and the readers come in blocks of at most _BLOCK
    samples and about _BLOCK readers beside their slice of w. Every draw is
    the one a whole-chunk draw gives, and the traced peak (2.3 MiB at
    lam = 10, 0.8 MiB of it the chunk's w) does not grow with `samples`, so
    validate's pool can run this beside its other checks.
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
        w = rs.exponential(params.alpha, n)
        ends = np.zeros(n, dtype=np.int64)
        if params.lam > 0:
            for a in range(0, n, _BLOCK):
                seg = ends[a : a + _BLOCK]
                np.cumsum(rs.poisson(params.lam * w[a : a + _BLOCK]), out=seg)
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
            l = l_src.gamma_int(k, params.alpha, b - a)
            first = int(ends[a - 1]) if a else 0
            count = int(ends[b - 1]) - first
            mb = np.diff(ends[a:b], prepend=first)
            # release y = E - U*w per reader, in place; bit-identical to -w*U + E
            y = u_src.uniform(count)
            y *= np.repeat(w[a:b], mb)
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
    return _rule_sum(f(end[..., None] * _X), end)


def _rule_sum(values: np.ndarray, end: np.ndarray) -> np.ndarray:
    """_integral's sum, of an integrand's values at the nodes end[..., None] * _X."""
    return np.sum(values * _W, axis=-1) * end


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


def _i1(mu: np.ndarray, w: np.ndarray) -> np.ndarray:
    """i1_numeric at rates already checked by _positive."""
    mu, w = mu[..., None], w[..., None]
    return _integral(lambda u: w * fy_density(mu, w, w * (u - 1.0)), 1.0)


def i1_numeric(mu, w):
    """int_{-w}^0 f_Y, over u = 1 + y/w in [0, 1]: f_Y rises on the scale 1/(mu w) from u = 0."""
    return _float_or_array(_i1(*_positive(mu=mu, w=w)))


def _qk_minus_1_over_mu(alpha: float, mu: float, k: int) -> tuple[float, float]:
    """(a, r) with a/r = ((alpha/(alpha+mu))^k - 1)/mu, taken two ways.

    From c = mu/alpha = 1e-8/k up, a = expm1(-k log1p(c)), which does not
    cancel when mu << alpha, and r = mu. Below, where c may underflow,
    a = -k (1 - (k+1) c/2) and r = alpha; the next term is at most 1e-16
    relative.
    """
    c = mu / alpha
    if c < 1e-8 / k:
        return -k * (1.0 - (k + 1) * c / 2.0), alpha
    return math.expm1(-k * math.log1p(c)), mu


def i3_closed(alpha: float, mu: float, k: int, w: float) -> float:
    """(1/(mu w)) * E[e^{-mu L} - 1] = ((alpha/(alpha+mu))^k - 1)/(mu w)."""
    a, r = _qk_minus_1_over_mu(alpha, mu, k)
    return a / (r * w)


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


def _i3_i4(alpha, mu, k, w) -> tuple[np.ndarray, np.ndarray]:
    """(I3, I4) over t = alpha l, from one evaluation of the factors they share.

    Both integrate f_L(t) times _expm1_scaled(c, t), I4 with the second
    factor times e^{-mu w}, and divide by r w. Takes k <= _MAX_RULE_K.
    """
    alpha, mu, w = _positive(alpha=alpha, mu=mu, w=w)
    c, r = _ratio_and_rate(mu, alpha)
    kc, end = _rule_shape(k)[..., None], _gamma_end(k)
    t = end[..., None] * _X
    f_l, g = gamma_l_pdf(1.0, kc, t), _expm1_scaled(c, t)
    f4 = f_l * (np.exp(-mu * w)[..., None] * g)
    return _rule_sum(f_l * g, end) / (r * w), _rule_sum(f4, end) / (r * w)


def i3_numeric(alpha, mu, k, w):
    """I3 = int_0^inf f_L(l) (e^{-mu l} - 1) dl / (mu w), over t = alpha l; k <= _MAX_RULE_K."""
    return _float_or_array(_i3_i4(alpha, mu, k, w)[0])


def i4_closed(alpha: float, mu: float, k: int, w: float) -> float:
    """e^{-mu w}/(mu w) * ((alpha/(alpha+mu))^k - 1)."""
    a, r = _qk_minus_1_over_mu(alpha, mu, k)
    return math.exp(-mu * w) * a / (r * w)


def i4_numeric(alpha, mu, k, w):
    """I4 = int_0^inf f_L(l) (e^{-mu (w + l)} - e^{-mu w}) dl / (mu w), over t = alpha l; k <= _MAX_RULE_K."""
    return _float_or_array(_i3_i4(alpha, mu, k, w)[1])


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
    return _float_or_array(_i1(mu, w) + _lemma1_above_zero(alpha, mu, k, w))


def _lemma1_above_zero(alpha: np.ndarray, mu: np.ndarray, k, w: np.ndarray) -> np.ndarray:
    """lemma1_numeric's second integral, int_0^inf f_Y(y) Q(k, alpha y) dy, at rates checked by _positive."""
    s = alpha + mu
    sc, pc, muc, wc = (a[..., None] for a in (s, alpha / s, mu, w))
    kc = _rule_shape(k)[..., None]
    return _integral(lambda t: fy_density(muc, wc, t / sc) * _gamma_q(kc, pc * t), _gamma_end(k)) / s


def fy_normalization(mu, w):
    """Total mass of fy_density (should be 1): i1_numeric plus the mass above zero, over t = mu y."""
    mu, w = _positive(mu=mu, w=w)
    return _float_or_array(_i1(mu, w) + _fy_above_zero(mu, w))


def _fy_above_zero(mu: np.ndarray, w: np.ndarray) -> np.ndarray:
    """fy_normalization's mass above zero at rates checked by _positive."""
    muc, wc = mu[..., None], w[..., None]
    return _integral(lambda t: fy_density(muc, wc, t / muc), _gamma_end(1.0)) / mu


# validate's grid: the Lemma 1 cells take (alpha, mu, w) and the appendix identities
# (alpha, mu, k, w) from these values, and Lemma 1 is checked at each k
_RATES = (0.5, 1.0, 2.0)
_KS = (1, 2, 5)
_WS = (0.1, 1.0, 5.0)

# grid rows per array call: the numerics' temporaries are rows x 656 nodes, so
# the 81-row default grid in one call peaked at 2.9 MiB and 27 rows peak at
# 1.0 MiB; rows do not interact, so any slicing gives the same values
_APPENDIX_ROWS = 27


def appendix_identity_checks() -> list[tuple[str, float, float, float]]:
    """Recompute the appendix integrals numerically against their closed forms.

    Returns (name, numeric, closed, abs_error) tuples over the grid of
    (alpha, mu, k, w) in _RATES x _RATES x _KS x _WS, with the values of the
    public numerics. Per slice of _APPENDIX_ROWS grid rows each integral is
    one array pass: I1 once, added to the Lemma 1 and fY-norm parts above
    zero, and I3 and I4 from one evaluation of their shared factors.
    """
    grid = [(alpha, mu, k, w) for alpha in _RATES for mu in _RATES for k in _KS for w in _WS]
    rows = np.array(grid, dtype=float).reshape(-1, 4)
    numeric = []
    for i in range(0, len(rows), _APPENDIX_ROWS):
        alpha, mu, k, w = rows[i : i + _APPENDIX_ROWS].T
        i1 = _i1(mu, w)
        i3, i4 = _i3_i4(alpha, mu, k, w)
        numeric += zip(
            i1.tolist(),
            i3.tolist(),
            i4.tolist(),
            (i1 + _lemma1_above_zero(alpha, mu, k, w)).tolist(),
            (i1 + _fy_above_zero(mu, w)).tolist(),
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


_MC_SES = 3.5  # a Monte Carlo line passes within this many standard errors (at least 1e-12)
_QUAD_TOL = 1e-8  # the series against the quadrature
_APPENDIX_TOL = 1e-6  # each appendix integral against its closed form


def _mc_line(name: str, est: McEstimate, label: str, target: float) -> tuple[str, bool, str]:
    """One (name, passed, detail) line of a Monte Carlo estimate against its target."""
    dev = abs(est.estimate - target)
    detail = f"mc={est.estimate:.6f} {label}={target:.6f} dev={dev:.2e} se={est.std_error:.2e}"
    return name, dev <= _MC_SES * max(est.std_error, 1e-12), detail


def checks(samples: int, seed: int) -> list:
    """validate's six checks in report order, each a callable returning its (name, passed, detail) lines.

    Lemma 1 at k = 1, 2, 5 (one pass over all three), P(E_k) at three points,
    the series against the quadrature (one array call of each over k per
    (alpha, lam)), the appendix identities. Each Monte Carlo check draws only
    from its own RandomSource(seed, stream), so the checks may run at once;
    each looks its oracles and closed forms up in this module when it runs.
    """

    def lemma1():
        cells = [(ModelParams(alpha, 1.0, mu), w) for w in _WS for alpha in _RATES for mu in _RATES]
        return [_mc_line(f"lemma1 k={k} w={w} alpha={p.alpha} mu={p.mu}", est, "closed", lemma1_epsilon(p, k, w))
                for k, ests in zip(_KS, lemma1_cells_by_k(_KS, cells, samples, seed))
                for (p, w), est in zip(cells, ests)]

    def p_ek(alpha, lam, mu, k):
        p = ModelParams(alpha, lam, mu)
        series, est = p_ek_series(p, k), mc_p_ek(p, k, samples, seed)
        return [_mc_line(f"p_ek mc-vs-series alpha={alpha} lam={lam} mu={mu} k={k}", est, "series", series)]

    def quadrature():
        worst, ks = 0.0, np.arange(1, 21)
        for alpha in (0.5, 1.0, 2.0, 5.0, 10.0, 100.0):
            for lam in (1.0, 5.0, 10.0):
                p = ModelParams(alpha, lam, 1.0)
                worst = max(worst, float(np.abs(p_ek_series(p, ks) - p_ek_quadrature(p, ks)).max()))
        return [("series-vs-quadrature grid", worst <= _QUAD_TOL, f"max dev={worst:.2e} tol={_QUAD_TOL:g}")]

    def appendix():
        name, err = max(((n, e) for n, _, _, e in appendix_identity_checks()), key=lambda t: t[1])
        return [("appendix identities", err <= _APPENDIX_TOL, f"max dev={err:.2e} at {name}")]

    points = [(1.0, 1.0, 1.0, 1), (1.0, 10.0, 1.0, 1), (2.0, 5.0, 1.0, 2)]
    return [lemma1, *(functools.partial(p_ek, *pt) for pt in points), quadrature, appendix]
