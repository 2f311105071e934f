"""Adaptive Gauss-Kronrod quadrature for planar-interface wavevector integrals.

One function, ``integrate(f, seeds, spec)``, integrates f from seeds[0] to
seeds[-1] by an adaptive 7-15 Gauss-Kronrod rule, bisecting the panels
between consecutive seeds. The caller owns the variable, the truncation and
the seeds: ``halfspace.scatter_numeric`` seeds its steepest-descent path at
the scales of its decay and of its reflections.

An integrand is called once per refinement round with the (n, 15) nodes of
n panels, must be elementwise over nodes, and returns (channels, n, 15)
values. Several integrals that share one costly evaluation are channels of
one integrand, and the result has one entry per channel. Every channel must
meet rel_tol on its own running value, so a small channel is not resolved
relative to a large one. Refinement and summation order are deterministic,
so identical inputs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

# f(x) with x the (n, 15) nodes of n panels -> the node values, (channels, n, 15)
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
# (15, 2): the Kronrod weights, and the Kronrod minus the Gauss weights (I15 - I7)
_WSUMS = np.column_stack([_W15, _W15])
_WSUMS[1::2, 1] -= _W7
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and panel budget of ``integrate``."""

    rel_tol: float = 1e-8
    max_panels: int = 10_000

    def __post_init__(self):
        # written so that NaN fails each check
        if not (0 < self.rel_tol < math.inf):
            raise ValueError("rel_tol must be positive and finite")
        if self.max_panels < 1:
            raise ValueError("max_panels must be >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    """Integral and error estimate, each with one entry per channel."""

    value: np.ndarray
    err_estimate: np.ndarray
    panels_used: int
    converged: bool


def _gk15(f: Integrand, a: np.ndarray, b: np.ndarray):
    """Gauss-Kronrod 7-15 on the panels [a, b] (arrays of panel ends).

    ``f`` is called once with the nodes of every panel, shape (panels, 15).
    Returns (I15, err), each of shape (channels, panels). Every channel is
    reduced by the same weight products on its own row, so a channel's
    result does not depend on how many channels or panels travel with it.
    """
    half = 0.5 * (b - a)
    rows = np.asarray(f((0.5 * (a + b))[:, None] + half[:, None] * _X15), dtype=complex)
    # np.dot of a 3-d array takes one BLAS dot product per (channel, panel) row
    # and weight column, so a row's sums never depend on its companions; a
    # matrix product (matmul, or np.dot of 2-d arrays) would go to BLAS gemm,
    # whose threads stall on large rounds whenever the other cores are busy
    sums = np.dot(rows, _WSUMS)  # (channels, panels, 2): the I15 and I15 - I7 sums
    raw = np.abs(sums[..., 1])
    resabs = np.dot(np.abs(rows), _W15)
    # rescaled error estimate; guards against |I15-I7| underestimating on
    # smooth integrands (same shape as the classic QUADPACK heuristic). The
    # ratio is that of the unscaled sums; a zero resabs means zero rows,
    # and the floor keeps their estimate at zero with no 0/0.
    ratio = 200.0 * raw / np.maximum(resabs, _TINY)
    return sums[..., 0] * half, np.abs(half) * np.maximum(raw, resabs * np.minimum(1.0, ratio**1.5))


def integrate(f: Integrand, seeds: Sequence[float], spec: QuadratureSpec) -> QuadratureResult:
    """Integrate f from seeds[0] to seeds[-1], starting from the panels
    between the ascending ``seeds``; raises QuadratureError, before any call
    to f, when they are more than ``max_panels``.

    Works in rounds, each one call of f: the seed panels, then both halves
    of every panel split in a round. A round ranks the panels by their worst
    channel's err/tol and splits the shortest prefix of that ranking whose
    removal leaves an error within tolerance in every channel (at least one
    panel, at most what ``max_panels`` still allows).
    """
    if len(seeds) - 1 > spec.max_panels:
        raise QuadratureError(f"{len(seeds) - 1} seed panels exceed max_panels = {spec.max_panels}")
    seeds = np.asarray(seeds, dtype=float)
    a, b = seeds[:-1], seeds[1:]
    val, err = _gk15(f, a, b)
    while True:
        value, err_sum = val.sum(axis=1), err.sum(axis=1)
        tol = spec.rel_tol * np.abs(value)
        converged = bool((err_sum <= tol).all())
        if converged or len(a) >= spec.max_panels:
            break
        mid = 0.5 * (a + b)
        splittable = np.flatnonzero((a < mid) & (mid < b))  # not exhausted at float resolution
        if not splittable.size:
            break
        # the tolerance is floored so that a zero channel divides by no zero
        share = (err / np.maximum(tol, _TINY)[:, None]).max(axis=0)
        ranked = splittable[np.argsort(-share[splittable], kind="stable")]
        # whether the error left unsplit after each prefix of the ranking is met
        met = (err_sum[:, None] - np.cumsum(err[:, ranked], axis=1) <= tol[:, None]).all(axis=0)
        n = int(np.argmax(met)) + 1 if met.any() else ranked.size
        split = ranked[:min(n, spec.max_panels - len(a))]
        lo, hi = np.concatenate([a[split], mid[split]]), np.concatenate([mid[split], b[split]])
        v, e = _gk15(f, lo, hi)
        keep = np.ones(len(a), dtype=bool)
        keep[split] = False
        a, b = np.concatenate([a[keep], lo]), np.concatenate([b[keep], hi])
        val = np.concatenate([val[:, keep], v], axis=1)
        err = np.concatenate([err[:, keep], e], axis=1)
        by_start = np.argsort(a)
        a, b, val, err = a[by_start], b[by_start], val[:, by_start], err[:, by_start]
    return QuadratureResult(value, err_sum, len(a), converged)
