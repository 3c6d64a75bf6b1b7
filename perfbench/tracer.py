"""Per-layer spans for the traced run, installed from outside the package.

Every public function and public method of the layer modules is replaced by
a wrapper that records calls and inclusive and self time (a span's duration
minus its child spans). A function imported into another module is bound
there too, so the wrapper is installed at every binding site (for example
`gk15` in both `quadrature` and `width`). Counters are read at the same
boundaries, from arguments and results. Spans are aggregated per name in
memory; nothing is written until the run ends.

Layers are the package modules. `errors` does no work, and `cli` is measured
as import time by the import probes of `run.py` instead.

One private method is wrapped too: `GrsRecursion._advance`, one step of the
smooth recursion (one band integral), which is what `grs.steps` counts.
Step-width index laws advance in closed-form blocks of many steps at once;
their steps are counted apart, as `grs.block_steps`.
"""
from __future__ import annotations

import collections
import functools
import inspect
import time

import numpy as np

from crs_toolkit.errors import StepBudgetError
from crs_toolkit.width import StepWidth

LAYERS = ("width", "quadrature", "divergences", "grs", "measures", "streams", "experiments")
PRIVATE_SPANS = ("grs.GrsRecursion._advance",)
ADVANCE = PRIVATE_SPANS[0]


class Tracer:
    def __init__(self):
        self.active = False
        # span name -> [calls, entries from another layer, inclusive s, self s]
        self.spans: dict[str, list] = {}
        self.counts = collections.Counter()
        # frames: [layer, child seconds, span name, integrate_interval seen]
        self._stack = [["", 0.0, "", False]]

    def install(self, package) -> None:
        """Wrap the public callables of every layer module at every binding site."""
        modules = [m for m in vars(package).values() if inspect.ismodule(m)
                   and m.__name__.startswith(package.__name__ + ".")]
        sites = [package, *modules]
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{name}", layer, obj)
                    for site in sites:
                        for bound, value in list(vars(site).items()):
                            if value is obj:
                                setattr(site, bound, wrapped)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        span = f"{layer}.{name}.{attr}"
                        if inspect.isfunction(fn) and (attr == "__call__" or not attr.startswith("_")
                                                       or span in PRIVATE_SPANS):
                            setattr(obj, attr, self._wrap(span, layer, fn))

    def _wrap(self, span: str, layer: str, fn):
        stats = self.spans.setdefault(span, [0, 0, 0.0, 0.0])
        parts = span.split(".")
        hook = _HOOKS.get(span) or (_METHOD_HOOKS.get((layer, parts[-1])) if len(parts) == 3 else None)
        stack, clock, tracer = self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [layer, 0.0, span, False]
            stack.append(frame)
            t0 = clock()
            out = exc = None
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                stats[0] += 1
                stats[2] += dt
                stats[3] += dt - frame[1]
                if parent[0] != layer:
                    stats[1] += 1
                if hook is not None:
                    hook(tracer.counts, args, out, exc, dt, parent)
            return out

        return traced

    def total(self, prefix: str, field: int) -> float:
        """Sum of one span field over spans whose name starts with prefix."""
        return sum(s[field] for name, s in self.spans.items() if name.startswith(prefix))

    def span(self, name: str, field: int) -> float:
        return self.spans.get(name, [0, 0, 0.0, 0.0])[field]

    def layer_metrics(self) -> dict[str, float]:
        c = self.counts
        self_s = {layer: self.total(layer + ".", 3) for layer in LAYERS}

        def per(num, den, scale):
            return scale * num / den if den else 0.0

        band = sum(s[0] for name, s in self.spans.items() if name.endswith(".band_integral"))
        draws = sum(s[2] for name, s in self.spans.items()
                    if name.startswith("measures.") and name.endswith(".draw"))
        m = {
            "grs.steps": self.span(ADVANCE, 0),
            "grs.us_per_step": per(self.span(ADVANCE, 2), self.span(ADVANCE, 0), 1e6),
            "grs.block_steps": c["grs.block_steps"],
            "grs.self_s": self_s["grs"],
            "grs.band_calls": band,
            "grs.band_refined": c["grs.band_refined"],
            "grs.state_calls": self.span("grs.GrsRecursion.state", 0),
            "grs.step_budget_errors": c["grs.step_budget_errors"],
            "width.calls": self.span("width.WidthFunction.__call__", 0),
            "width.points": c["width.points"],
            "width.self_s": self_s["width"],
            "width.ns_per_point": per(self.span("width.WidthFunction.__call__", 2),
                                      c["width.points"], 1e9),
            "quadrature.gk15_calls": self.span("quadrature.gk15", 0),
            "quadrature.adaptive_calls": self.span("quadrature.adaptive", 0),
            "quadrature.panels": c["quadrature.panels"],
            "quadrature.us_per_panel": per(self.span("quadrature.gk15", 2),
                                           self.span("quadrature.gk15", 0), 1e6),
            "quadrature.unconverged": c["quadrature.unconverged"],
            "quadrature.self_s": self_s["quadrature"],
            "divergences.calls": self.total("divergences.", 1),
            "divergences.self_s": self_s["divergences"],
            "measures.draw_points": c["measures.draw_points"],
            "measures.log_ratio_points": c["measures.log_ratio_points"],
            "measures.ns_per_draw": per(draws, c["measures.draw_points"], 1e9),
            "measures.self_s": self_s["measures"],
            "streams.generators": self.span("streams.RngStream.generator", 0),
            "streams.self_s": self_s["streams"],
            "experiments.pairs": c["experiments.pairs"],
            "experiments.self_s": self_s["experiments"],
        }
        return {k: float(v) for k, v in m.items()}


def wiring_errors(metrics: dict, nonzero, zero) -> list[str]:
    """Predicted zero/nonzero pattern that the traced run did not show."""
    errs = [f"{k} is 0 but the workload should exercise it" for k in nonzero if not metrics[k]]
    errs += [f"{k} is {metrics[k]:g} but should be 0 on this workload" for k in zero if metrics[k]]
    return errs


def _grs_entry(counts, args, out, exc, dt, parent):
    if isinstance(exc, StepBudgetError):
        counts["grs.step_budget_errors"] += 1


def _index_distribution(counts, args, out, exc, dt, parent):
    _grs_entry(counts, args, out, exc, dt, parent)
    if exc is None and args and isinstance(args[0], StepWidth):
        counts["grs.block_steps"] += out.truncation_index


def _width_call(counts, args, out, exc, dt, parent):
    counts["width.points"] += np.size(args[1])


def _adaptive(counts, args, out, exc, dt, parent):
    if exc is None:
        counts["quadrature.panels"] += out.panels
        counts["quadrature.unconverged"] += not out.converged


def _integrate_interval(counts, args, out, exc, dt, parent):
    # a band whose first GK15 panel missed tol falls back to integrate_interval
    if parent[2].endswith(".band_integral") and not parent[3]:
        counts["grs.band_refined"] += 1
        parent[3] = True


def _bound_suite(counts, args, out, exc, dt, parent):
    if exc is None:
        counts["experiments.pairs"] += len(out.pairs)


def _draw(counts, args, out, exc, dt, parent):
    counts["measures.draw_points"] += args[2]


def _log_ratio(counts, args, out, exc, dt, parent):
    if exc is None:
        counts["measures.log_ratio_points"] += np.size(out)


_HOOKS = {
    "grs.grs_index_distribution": _index_distribution,
    "grs.grs_sample": _grs_entry,
    "grs.grs_empirical": _grs_entry,
    "width.WidthFunction.__call__": _width_call,
    "quadrature.adaptive": _adaptive,
    "quadrature.integrate_interval": _integrate_interval,
    "experiments.bound_suite": _bound_suite,
}
_METHOD_HOOKS = {("measures", "draw"): _draw, ("measures", "log_ratio"): _log_ratio}
