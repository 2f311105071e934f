"""Adaptive Gauss-Kronrod quadrature for planar-interface wavevector integrals.

The scattering integrals split into a traveling segment (perpendicular wave
number k_perp in [0, k0], oscillatory through exp(2i k_perp z)) and an
evanescent tail (decay constant kappa_perp in [0, inf), damped by
exp(-2 kappa_perp z)). Both are handled by a 7-15 embedded Gauss-Kronrod
pair on adaptively bisected panels:

* traveling panels are seeded on half-periods of exp(2i k_perp z), so the
  base rule never straddles more than half an oscillation;
* the evanescent tail is mapped to u = 2 kappa_perp z and truncated at
  u = evanescent_cutoff_u (default 40, a e^-40 tail, far below any
  realistic tolerance).

An integrand is called once per panel with the panel's 15 nodes as an
array and returns their values with the nodes on the last axis: shape (15,)
for a scalar integral, (channels, 15) for several integrals that share one
costly evaluation (the result then has one entry per channel). Every
channel must meet rel_tol on its own running value (plus abs_floor) before
the integral stops, so a small channel is not resolved relative to a large
one. A scalar integral refines exactly as a one-channel one.

Panel refinement order and the final summation order are deterministic, so
identical inputs give bit-identical results.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

# f(x) with x the (15,) nodes of one panel -> the node values, shape (15,)
# for a scalar integrand or (channels, 15) for an array-valued one
Integrand = Callable[[np.ndarray], np.ndarray]

# 15-point Kronrod abscissae (positive half) and weights, with the embedded
# 7-point Gauss weights on the odd-indexed abscissae.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])
_X15 = np.concatenate([-_XGK, _XGK[-2::-1]])  # the 15 nodes on [-1, 1], ascending
_W15 = np.concatenate([_WGK, _WGK[-2::-1]])  # Kronrod weights of the 15 nodes
_W7 = np.concatenate([_WG, _WG[-2::-1]])  # Gauss weights of the odd-indexed nodes
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the adaptive integrators."""

    rel_tol: float = 1e-8
    abs_floor: float = 1e-300
    max_panels: int = 10_000
    evanescent_cutoff_u: float = 40.0

    def __post_init__(self):
        if not (self.rel_tol > 0):
            raise ValueError("rel_tol must be positive")
        if self.max_panels < 1:
            raise ValueError("max_panels must be >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    """Integral and error estimate, each a scalar or one entry per channel."""

    value: Union[complex, np.ndarray]
    err_estimate: Union[float, np.ndarray]
    panels_used: int
    converged: bool


def _gk15(f: Integrand, a: float, b: float):
    """One Gauss-Kronrod 7-15 panel: (I15, err), scalars for a scalar
    integrand and arrays of its channel shape for an array-valued one.

    ``f`` is called once with the 15 nodes. Every channel is reduced by the
    same weight products on its own row, so a channel's result does not
    depend on how many channels travel with it.
    """
    half = 0.5 * (b - a)
    fv = np.asarray(f(0.5 * (a + b) + half * _X15), dtype=complex)
    rows = fv.reshape(-1, 15)
    i15 = half * (rows @ _W15)
    i7 = half * (rows[:, 1::2] @ _W7)
    resabs = abs(half) * (np.abs(rows) @ _W15)
    raw = np.abs(i15 - i7)
    # rescaled error estimate; guards against |I15-I7| underestimating on
    # smooth integrands (same shape as the classic QUADPACK heuristic)
    with np.errstate(divide="ignore", invalid="ignore"):
        rescaled = np.maximum(raw, resabs * np.minimum(1.0, (200.0 * raw / resabs) ** 1.5))
    err = np.where(resabs > 0, rescaled, raw)
    if fv.ndim == 1:
        return complex(i15[0]), float(err[0])
    return i15.reshape(fv.shape[:-1]), err.reshape(fv.shape[:-1])


def _adaptive(f: Integrand, seeds: Sequence[float], spec: QuadratureSpec) -> QuadratureResult:
    """Adaptively bisect the seeded panels until every channel meets the
    tolerance on its own running value.

    The worst channel's err/scale orders the refinement, with scale fixed
    after the seed pass so that queued keys never go stale; for a scalar
    integrand this is the order of err itself.
    """
    if len(seeds) - 1 > spec.max_panels:
        # the panel budget is a hard cap; fall back to a uniform coarse seeding
        seeds = list(np.linspace(seeds[0], seeds[-1], spec.max_panels + 1))
    panels = []  # entries: (a, b, value, err)
    run_value = 0.0 + 0.0j
    run_err = 0.0
    for a, b in zip(seeds[:-1], seeds[1:]):
        if not b > a:
            continue
        val, err = _gk15(f, a, b)
        panels.append((a, b, val, err))
        run_value += val
        run_err += err
    # each channel's tolerance after the seed pass, floored so that a zero
    # channel under abs_floor = 0 divides by no zero; the keys are Python
    # floats, so an overflowing ratio is a silent inf
    tol = np.atleast_1d(spec.rel_tol * abs(run_value) + spec.abs_floor)
    scales = [max(s, _TINY) for s in tol.tolist()]

    def key(err) -> float:
        return -max(e / s for e, s in zip(np.atleast_1d(err).tolist(), scales))

    heap = [(key(p[3]), i, i) for i, p in enumerate(panels)]  # (key, counter, index)
    heapq.heapify(heap)
    counter = len(panels)

    def final(converged: bool) -> QuadratureResult:
        value = 0.0 + 0.0j
        err = 0.0
        for _, _, v, e in sorted(panels, key=lambda p: p[0]):
            value += v
            err += e
        return QuadratureResult(value, err, len(panels), converged)

    while True:
        if np.all(run_err <= spec.rel_tol * abs(run_value) + spec.abs_floor):
            return final(True)
        if len(panels) >= spec.max_panels or not heap:
            return final(False)
        _, _, idx = heapq.heappop(heap)
        a, b, val, err = panels[idx]
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # interval exhausted at float resolution
            continue
        vl, el = _gk15(f, a, mid)
        vr, er = _gk15(f, mid, b)
        panels[idx] = (a, mid, vl, el)
        heapq.heappush(heap, (key(el), counter, idx))
        counter += 1
        panels.append((mid, b, vr, er))
        heapq.heappush(heap, (key(er), counter, len(panels) - 1))
        counter += 1
        run_value += vl + vr - val
        run_err += el + er - err


def _merge_seeds(base: Iterable[float], extra: Iterable[float], lo: float, hi: float):
    pts = {lo, hi}
    for x in list(base) + list(extra):
        if lo < x < hi:
            pts.add(float(x))
    return sorted(pts)


def integrate_traveling(
    f: Integrand,
    k0: float,
    z: float,
    spec: QuadratureSpec = QuadratureSpec(),
    breakpoints: Iterable[float] = (),
) -> QuadratureResult:
    """Integrate f(k_perp) over [0, k0] with exp(2i k_perp z)-aware panels.

    Panels are seeded at half-period boundaries k_perp = j pi / (2 z); the
    adaptive pass refines from there. ``breakpoints`` may supply extra seed
    points (e.g. branch points of reflection coefficients). ``f`` takes the
    15 nodes of a panel as an array and returns their values on its last
    axis; with a leading channel axis, each channel converges to rel_tol of
    its own value and the result carries one value and error per channel.
    """
    if k0 <= 0:
        return QuadratureResult(0.0 + 0.0j, 0.0, 0, True)
    seeds = []
    if z > 0:
        h = np.pi / (2.0 * z)  # half-period of exp(2i k_perp z)
        n = min(int(k0 / h), 4096)
        seeds = [j * h for j in range(1, n + 1)]
    return _adaptive(f, _merge_seeds(seeds, breakpoints, 0.0, k0), spec)


def integrate_evanescent(
    f: Integrand,
    z: float,
    spec: QuadratureSpec = QuadratureSpec(),
    breakpoints: Iterable[float] = (),
) -> QuadratureResult:
    """Integrate f(kappa_perp) over [0, inf) for integrands decaying at least
    as exp(-2 kappa_perp z).

    Uses the substitution u = 2 kappa_perp z, truncating at
    spec.evanescent_cutoff_u. ``breakpoints`` are kappa_perp values (branch
    points) added to the panel seeds. ``f`` is node-batched, and a
    channel-valued one converges channel by channel, as in
    ``integrate_traveling``.
    """
    if z <= 0:
        raise ValueError("evanescent integral requires z > 0")
    umax = spec.evanescent_cutoff_u
    scale = 1.0 / (2.0 * z)

    base = [u for u in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 28.0) if u < umax]
    extra = [2.0 * z * b for b in breakpoints]
    res = _adaptive(lambda u: f(u * scale), _merge_seeds(base, extra, 0.0, umax), spec)
    return QuadratureResult(
        res.value * scale, res.err_estimate * scale, res.panels_used, res.converged
    )
