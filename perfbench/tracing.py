"""Per-layer tracing of rcumem from outside the package.

Each public function is wrapped on the module attribute its caller looks
up, because `from X import Y` binds the name in the importing module:
`rcumem.cli.main`, `rcumem.cli.simulate`, every public function in the
namespaces of `rcumem.analytics` and `rcumem.validation` (attributed to the
module that defines it), and the RandomSource sampling methods on the class.
Spans (name, start, end, parent) are kept in memory. Functions called per
quadrature node or per series term get a call counter instead of a span,
so that tracing does not swamp the time it measures.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time

# called up to ~1e5 times per grid point (p_ek_series) or per quadrature
# node inside scipy's quad (fy_density, gamma_l_pdf)
COUNTED = {"p_ek_series", "fy_density", "gamma_l_pdf"}
RNG_METHODS = ("uniform", "exponential", "gamma_int", "poisson")

# exact counts that must repeat across same-seed runs
EXACT = (
    "core.variates",
    "analytics.en_exact.terms",
    "analytics.p_ek_series.calls",
    "validation.integrand_evals",
    "simulator.publications",
    "simulator.reads",
)


class Tracer:
    """Span and counter store for one traced job; install() patches rcumem."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _span(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def _wrap_function(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        if fn.__name__ in COUNTED:
            return self._counter(name, fn)
        if name == "analytics.en_exact":
            return self._span(name, fn, lambda r: self._add("analytics.en_exact.terms", r.terms_used_k))
        if name.startswith("validation.mc_"):
            return self._span(name, fn, lambda r: self._add(name + ".samples", r.samples))
        return self._span(name, fn)

    @contextlib.contextmanager
    def install(self):
        """Patch rcumem for the duration of the block, then restore it."""
        import numpy as np
        import rcumem.analytics
        import rcumem.cli
        import rcumem.core
        import rcumem.validation

        saved: list[tuple[object, str, object]] = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        def on_stats(st):
            self._add("simulator.publications", st.publications)
            self._add("simulator.reads", st.reads_served)

        layers = ("rcumem.analytics", "rcumem.validation")
        for mod in (rcumem.analytics, rcumem.validation):
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ in layers:
                    patch(mod, attr, self._wrap_function(fn))
        patch(rcumem.cli, "simulate", self._span("simulator.simulate", rcumem.cli.simulate, on_stats))
        patch(rcumem.cli, "main", self._span("cli.main", rcumem.cli.main))
        for meth in RNG_METHODS:
            key = f"core.{meth}.variates"
            patch(rcumem.core.RandomSource, meth, self._span(
                f"core.{meth}", getattr(rcumem.core.RandomSource, meth),
                lambda r, key=key: self._add(key, np.size(r)),
            ))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of the job traced so far."""
        total: dict[str, float] = {}
        self_t: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_core: dict[str, float] = {}  # parent name -> time in direct core children
        for name, start, end, parent in self.spans:
            d = end - start
            total[name] = total.get(name, 0.0) + d
            self_t[name] = self_t.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                pname = self.spans[parent][0]
                self_t[pname] -= d
                if name.startswith("core."):
                    child_core[pname] = child_core.get(pname, 0.0) + d

        def layer_self(layer: str) -> float:
            return sum(v for k, v in self_t.items() if k.startswith(layer + "."))

        def ratio(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        c = self.counts
        sim_t = total.get("simulator.simulate", 0.0)
        out: dict[str, float] = {}
        for meth in RNG_METHODS:
            out[f"core.{meth}.variates_per_s"] = ratio(c.get(f"core.{meth}.variates", 0), self_t.get(f"core.{meth}", 0.0))
        out["core.variates"] = sum(c.get(f"core.{m}.variates", 0) for m in RNG_METHODS)
        out["core.self_s"] = layer_self("core")
        out["analytics.en_exact.us_per_point"] = 1e6 * ratio(total.get("analytics.en_exact", 0.0), calls.get("analytics.en_exact", 0))
        out["analytics.en_exact.terms"] = c.get("analytics.en_exact.terms", 0)
        out["analytics.p_ek_series.calls"] = c.get("analytics.p_ek_series", 0)
        out["analytics.en_bound_jensen.us_per_point"] = 1e6 * ratio(
            total.get("analytics.en_bound_jensen", 0.0), calls.get("analytics.en_bound_jensen", 0))
        out["analytics.p_ek_quadrature.us_per_call"] = 1e6 * ratio(
            total.get("analytics.p_ek_quadrature", 0.0), calls.get("analytics.p_ek_quadrature", 0))
        out["analytics.self_s"] = layer_self("analytics")
        out["simulator.simulate.self_s"] = self_t.get("simulator.simulate", 0.0)
        out["simulator.rng_share"] = ratio(child_core.get("simulator.simulate", 0.0), sim_t)
        out["simulator.reads_per_s"] = ratio(c.get("simulator.reads", 0), sim_t)
        out["simulator.publications_per_s"] = ratio(c.get("simulator.publications", 0), sim_t)
        out["simulator.publications"] = c.get("simulator.publications", 0)
        out["simulator.reads"] = c.get("simulator.reads", 0)
        for mc in ("mc_lemma1", "mc_p_ek"):
            out[f"validation.{mc}.samples_per_s"] = ratio(
                c.get(f"validation.{mc}.samples", 0), total.get(f"validation.{mc}", 0.0))
        out["validation.appendix_identity_checks.s"] = total.get("validation.appendix_identity_checks", 0.0)
        out["validation.integrand_evals"] = c.get("validation.fy_density", 0) + c.get("validation.gamma_l_pdf", 0)
        out["validation.self_s"] = layer_self("validation")
        out["cli.self_s"] = self_t.get("cli.main", 0.0)
        return out


_UNITS = {
    "variates_per_s": "1/s", "samples_per_s": "1/s", "reads_per_s": "1/s", "publications_per_s": "1/s",
    "self_s": "s", "overhead_s": "s", "appendix_identity_checks.s": "s",
    "us_per_point": "us", "us_per_call": "us", "rng_share": "ratio",
}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name; the rest are exact counts."""
    for suffix, u in _UNITS.items():
        if name.endswith(suffix):
            return u
    return "count"


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced jobs; exact counts stay whole numbers."""
    out = {}
    for k in runs[0]:
        vals = [r[k] for r in runs]
        out[k] = statistics.median_low(vals) if all(isinstance(v, int) for v in vals) else statistics.median(vals)
    return out
