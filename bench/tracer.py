"""Span tracer that wraps public module attributes of chipurcell from outside.

Each wrapped call records its layer's call count, total time and self time
(total minus the time of wrapped calls made inside it). Calls on the
coarse layers (one or a few per point) also record a span: name, start,
end, parent span and point id. The two per-node layers (reflection
evaluations and quadrature integrands, up to ~10^5 calls per point) are
only aggregated, so that a traced pass fits in memory.

A target whose module or attribute does not exist is reported as an absent
layer instead of failing, so the benchmark keeps running when a later
change removes or renames one of them.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

import numpy as np

# (layer, module, attribute, records spans). A layer may wrap several
# attributes: the same function is bound in more than one module namespace.
TARGETS = [
    ("cli.run_scenario", "chipurcell.cli", "run_scenario", True),
    ("cli.run_fresnel", "chipurcell.cli", "run_fresnel", True),
    ("bulk.rates_bulk", "chipurcell.cli", "rates_bulk", True),
    ("onsager.rates_lfc", "chipurcell.cli", "rates_lfc", True),
    ("halfspace.rates_halfspace", "chipurcell.cli", "rates_halfspace", True),
    ("halfspace.rates_mirror", "chipurcell.cli", "rates_mirror", True),
    ("halfspace.numeric", "chipurcell.halfspace", "curl_img_scatter_numeric", True),
    ("halfspace.numeric", "chipurcell.halfspace", "img_g_scatter_numeric", True),
    ("sommerfeld.traveling", "chipurcell.halfspace", "integrate_traveling", True),
    ("sommerfeld.evanescent", "chipurcell.halfspace", "integrate_evanescent", True),
    ("halfspace.fresnel_general", "chipurcell.halfspace", "fresnel_general", False),
    ("halfspace.fresnel_general", "chipurcell.cli", "fresnel_general", False),
]
INTEGRAND = "halfspace.integrand"      # the f handed to a sommerfeld integrator
INTEGRATORS = ("sommerfeld.traveling", "sommerfeld.evanescent")


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class PassTrace:
    """What one traced pass recorded."""

    layers: dict = field(default_factory=dict)    # layer -> LayerStats
    spans: list = field(default_factory=list)     # (id, name, start, end, parent, point)
    integrals: int = 0
    converged: int = 0
    panels: int = 0
    nodes: int = 0

    def counts(self) -> dict:
        """Every count, for the check that counts repeat exactly."""
        c = {name: s.calls for name, s in self.layers.items()}
        c.update(integrals=self.integrals, converged=self.converged,
                 panels=self.panels, nodes=self.nodes)
        return c


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent: list[str] = []
        self._saved = []          # (module, attribute, original)
        self._stack = []          # frames: [child_time, span_id]
        self._point = None
        self._next_span = 0
        self.trace = PassTrace()

    def install(self) -> None:
        """Wrap every target that exists; remember the layers that do not."""
        present, missing = set(), set()
        for layer, modname, attr, spans in self.targets:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                missing.add(layer)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.add(layer)
                continue
            present.add(layer)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, fn, spans))
        if not present.intersection(INTEGRATORS):
            missing.add(INTEGRAND)
        self.absent = sorted(missing - present)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def begin_pass(self) -> None:
        self.trace = PassTrace()
        self._stack = [[0.0, None]]

    def begin_point(self, point_id: int) -> None:
        self._point = point_id

    def _wrap(self, layer: str, fn, spans: bool):
        integrator = layer in INTEGRATORS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if integrator:
                if args:
                    args = (self._wrap_integrand(args[0]),) + args[1:]
                elif "f" in kwargs:
                    kwargs["f"] = self._wrap_integrand(kwargs["f"])
            parent = self._stack[-1]
            span_id = parent[1]
            if spans:
                span_id = self._next_span
                self._next_span += 1
            frame = [0.0, span_id]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self._record(layer, t1 - t0, frame[0], parent)
                if spans:
                    self.trace.spans.append((span_id, layer, t0, t1, parent[1], self._point))
            if integrator:
                self._count_integral(result)
            return result

        return wrapper

    def _wrap_integrand(self, f):
        if not callable(f):
            return f

        def integrand(x, *args, **kwargs):
            # a batched integrand takes an array of nodes at once
            self.trace.nodes += int(np.size(x)) if isinstance(x, np.ndarray) else 1
            parent = self._stack[-1]
            frame = [0.0, parent[1]]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return f(x, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self._record(INTEGRAND, dt, frame[0], parent)

        return integrand

    def _record(self, layer: str, dt: float, child_s: float, parent: list) -> None:
        parent[0] += dt
        s = self.trace.layers.get(layer)
        if s is None:
            s = self.trace.layers[layer] = LayerStats()
        s.calls += 1
        s.total_s += dt
        s.self_s += dt - child_s

    def _count_integral(self, result) -> None:
        self.trace.integrals += 1
        panels = getattr(result, "panels_used", None)
        if panels is not None:
            self.trace.panels += int(panels)
        if getattr(result, "converged", False):
            self.trace.converged += 1


def layer_metrics(trace: PassTrace, points: int) -> dict:
    """Per-layer metrics of one pass of ``points`` points, as (value, unit)."""
    L = trace.layers
    calls = lambda name: L[name].calls if name in L else 0
    total = lambda name: L[name].total_s if name in L else 0.0
    self_s = lambda *names: sum(L[n].self_s for n in names if n in L)
    integrals = trace.integrals
    return {
        "cli.run_scenario.calls": (calls("cli.run_scenario"), "count"),
        "cli.self_s": (self_s("cli.run_scenario", "cli.run_fresnel"), "s"),
        "bulk.rates_bulk.s": (total("bulk.rates_bulk"), "s"),
        "onsager.rates_lfc.s": (total("onsager.rates_lfc"), "s"),
        "halfspace.rates_halfspace.calls": (calls("halfspace.rates_halfspace"), "count"),
        "halfspace.rates_halfspace.s": (total("halfspace.rates_halfspace"), "s"),
        "halfspace.rates_mirror.calls": (calls("halfspace.rates_mirror"), "count"),
        "halfspace.rates_mirror.s": (total("halfspace.rates_mirror"), "s"),
        "halfspace.numeric.calls": (calls("halfspace.numeric"), "count"),
        "halfspace.integrand.self_s": (self_s(INTEGRAND), "s"),
        "halfspace.fresnel_general.calls": (calls("halfspace.fresnel_general"), "count"),
        "halfspace.fresnel_general.self_s": (self_s("halfspace.fresnel_general"), "s"),
        "halfspace.fresnel_general.calls_per_point":
            (calls("halfspace.fresnel_general") / points, "calls/point"),
        "sommerfeld.traveling.calls": (calls("sommerfeld.traveling"), "count"),
        "sommerfeld.evanescent.calls": (calls("sommerfeld.evanescent"), "count"),
        "sommerfeld.panels": (trace.panels, "count"),
        "sommerfeld.nodes": (trace.nodes, "count"),
        "sommerfeld.nodes_per_integral":
            (trace.nodes / integrals if integrals else 0.0, "nodes/integral"),
        "sommerfeld.self_s": (self_s(*INTEGRATORS), "s"),
        # no integrals means none failed to converge
        "sommerfeld.converged_ratio":
            (trace.converged / integrals if integrals else 1.0, "fraction"),
    }
