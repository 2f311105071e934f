"""Adaptive Gauss-Kronrod quadrature for planar-interface wavevector integrals.

One function, ``integrate(f, seeds, spec)``, integrates f from seeds[0] to
seeds[-1] by an adaptive 7-15 Gauss-Kronrod rule, bisecting the panels
between consecutive seeds, which must be at least two finite floats in
strictly ascending order. The caller owns the variable, the truncation and
the seeds: ``halfspace.scatter_numeric`` seeds its steepest-descent path at
the scales of its decay and of its reflections. A panel's error estimate is
QUADPACK's rescaled one (``_gk15``), and a seed round that meets every
tolerance is the only round.

Every seed array reaches the rounds as a ``_Seeds`` tuple (a plain
sequence as a new one), which builds its seed round, the checked panel ends
and their nodes, once and keeps it. Panels are kept in creation order.

An integrand is called once per refinement round with the (n, 15) nodes of
n panels, must be elementwise over nodes, and returns (channels, n, 15)
values. Several integrals that share one costly evaluation are channels of
one integrand, and the result has one entry per channel. Every channel must
meet rel_tol on its own running value, so a small channel is not resolved
relative to a large one. Refinement and summation order are deterministic,
so identical inputs give bit-identical results.
"""

from __future__ import annotations

import functools
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
_U15 = 0.5 * (1.0 + _X15)  # the same nodes on [0, 1]: a panel's are a + (b - a) * _U15
_W15 = np.concatenate([_WGK, _WGK[-2::-1]])  # Kronrod weights of the 15 nodes
_W7 = np.concatenate([_WG, _WG[-2::-1]])  # Gauss weights of the odd-indexed nodes
# (15, 2): the Kronrod weights, and the Kronrod minus the Gauss weights (I15 - I7),
# halved for the width b - a of [0, 1], as is _W15 in _WABS (exact: a power of two)
_WSUMS = np.column_stack([_W15, _W15])
_WSUMS[1::2, 1] -= _W7
_WSUMS *= 0.5
_WABS = 0.5 * _W15
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
        if not (self.max_panels >= 1 and self.max_panels % 1 == 0):
            raise ValueError("max_panels must be a whole number >= 1")
        object.__setattr__(self, "max_panels", int(self.max_panels))  # a slice bound in integrate


@dataclass(frozen=True)
class QuadratureResult:
    """Integral and error estimate, each with one entry per channel."""

    value: np.ndarray
    err_estimate: np.ndarray
    panels_used: int
    converged: bool


def _panels(a: np.ndarray, b: np.ndarray) -> tuple:
    """(widths, nodes) of the panels [a, b]: the (panels, 15) nodes are
    a + (b - a) * _U15, the one place they are built."""
    width = b - a
    return width, a[:, None] + width[:, None] * _U15


class _Seeds(tuple):
    """Seeds as ``integrate`` lays them out: an immutable tuple of floats
    that keeps its seed round, so that seeds used again are checked once."""

    @functools.cached_property
    def round(self) -> tuple:
        """(a, b, (widths, nodes)): the panel ends of the seeds, checked to
        be at least two finite floats in strictly ascending order (ValueError
        otherwise, on every call: a failed check is not kept), and their
        ``_panels``, all read-only."""
        seeds = np.array(self, dtype=float)
        # a NaN fails every comparison, and ascending seeds are finite if their ends are
        # (count_nonzero, not all(): the fixed cost of every call counts here)
        if not (seeds.ndim == 1 and len(seeds) > 1 and -math.inf < seeds[0] and seeds[-1] < math.inf
                and np.count_nonzero(seeds[:-1] < seeds[1:]) == len(seeds) - 1):
            raise ValueError(f"seeds must be at least two finite floats in strictly ascending order, got {seeds!r}")
        a, b = seeds[:-1], seeds[1:]
        width, nodes = _panels(a, b)
        for array in (seeds, width, nodes):
            array.flags.writeable = False
        return a, b, (width, nodes)


def _gk15(f: Integrand, a: np.ndarray, b: np.ndarray, panels: tuple | None = None):
    """Gauss-Kronrod 7-15 on the panels [a, b] (arrays of panel ends, a < b).

    ``f`` is called once with the nodes of every panel, shape (panels, 15):
    ``panels``, their (widths, nodes) where the caller keeps them (the seed
    round of a ``_Seeds``), or else built here. Returns (I15, err), each of
    shape (channels, panels). Every channel is reduced by the same weight
    products on its own row, so a channel's result does not depend on how
    many channels or panels travel with it.
    """
    width, x = _panels(a, b) if panels is None else panels
    rows = np.asarray(f(x), dtype=complex)
    # np.dot of a 3-d array takes one BLAS dot product per (channel, panel) row
    # and weight column, so a row's sums never depend on its companions; a
    # matrix product (matmul, or np.dot of 2-d arrays) would go to BLAS gemm,
    # whose threads stall on large rounds whenever the other cores are busy
    sums = np.dot(rows, _WSUMS)  # (channels, panels, 2): the I15 and I15 - I7 sums
    raw = np.abs(sums[..., 1])
    resabs = np.dot(np.abs(rows), _WABS)
    # rescaled error estimate, max(raw, resabs min(1, (200 raw/resabs)^1.5)):
    # QUADPACK's qk15 rescaling (Piessens et al. 1983, section 2.2) with
    # resabs in place of its resasc; it guards against |I15 - I7|
    # underestimating on smooth integrands. It is formed in fewer array
    # operations as max(raw, min(resabs, 200^1.5 raw sqrt(raw/resabs))).
    # A zero resabs means zero rows, and the floor keeps their estimate at
    # zero with no 0/0.
    err = np.sqrt(raw / np.maximum(resabs, _TINY))
    err *= raw
    err *= 200.0**1.5
    np.minimum(err, resabs, out=err)
    np.maximum(err, raw, out=err)
    err *= width
    return sums[..., 0] * width, err


def integrate(f: Integrand, seeds: Sequence[float], spec: QuadratureSpec) -> QuadratureResult:
    """Integrate f from seeds[0] to seeds[-1], starting from the panels
    between the ``seeds``, which must be at least two finite floats in
    strictly ascending order (ValueError otherwise); raises QuadratureError
    when they make more than ``max_panels`` panels. Both are raised before
    any call to f. The seeds are checked, and their seed round built, once
    per ``_Seeds`` (a plain sequence is a new one).

    Works in rounds, each one call of f: the seed panels, then both halves
    of every panel split in a round. A round ranks the panels by their worst
    channel's err/tol and splits the shortest prefix of that ranking whose
    removal leaves an error within tolerance in every channel (at least one
    panel, at most what ``max_panels`` still allows). A round whose value is
    not finite is the last.
    """
    if not isinstance(seeds, _Seeds):
        seeds = _Seeds(np.array(seeds, dtype=float, ndmin=1).tolist())
    a, b, panels = seeds.round
    if len(a) > spec.max_panels:
        raise QuadratureError(f"{len(a)} seed panels exceed max_panels = {spec.max_panels}")
    val, err = _gk15(f, a, b, panels)
    while True:
        value, err_sum = np.add.reduce(val, 1), np.add.reduce(err, 1)
        tol = spec.rel_tol * np.abs(value)
        converged = np.count_nonzero(err_sum <= tol) == len(tol)
        # a seed round that converges ends here, and pays no finiteness test
        if converged or len(a) >= spec.max_panels or not np.isfinite(value).all():
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
    return QuadratureResult(value, err_sum, len(a), converged)
