"""Adaptive Gauss-Kronrod quadrature for planar-interface wavevector integrals.

One integrator, ``integrate_evanescent``, integrates a decaying tail over
t in [0, inf), damped at least like exp(-2 t z): the planar scattering
integrals on the steepest-descent path k_perp = k0 + i t, or the evanescent
axis k_perp = i t. The tail is mapped to u = 2 t z and truncated at
u = evanescent_cutoff_u (default 40, an e^-40 tail, far below any realistic
tolerance), and integrated by an adaptive 7-15 Gauss-Kronrod driver on
bisected panels.

An integrand has one shape: it is called once per refinement round with an
(n, 15) array of panel nodes, one row per panel, must be elementwise over
nodes, and returns (channels, n, 15) values, one row of node values per
channel. Several integrals that share one costly evaluation are channels of
one integrand, and the result has one entry per channel. Every channel must
meet rel_tol on its own running value (plus abs_floor) before the integral
stops, so a small channel is not resolved relative to a large one.

Panel refinement order and the final summation order are deterministic, so
identical inputs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

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
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the adaptive integrators."""

    rel_tol: float = 1e-8
    abs_floor: float = 1e-300
    max_panels: int = 10_000
    evanescent_cutoff_u: float = 40.0

    def __post_init__(self):
        # written so that NaN fails each check
        if not (0 < self.rel_tol < math.inf):
            raise ValueError("rel_tol must be positive and finite")
        if not (0 <= self.abs_floor < math.inf):
            raise ValueError("abs_floor must be non-negative and finite")
        if self.max_panels < 1:
            raise ValueError("max_panels must be >= 1")
        if not (0 < self.evanescent_cutoff_u < math.inf):
            raise ValueError("evanescent_cutoff_u must be positive and finite")


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
    # einsum, not matmul: a BLAS matrix-vector product over many panels
    # spreads onto threads, which stall whenever the other cores are busy
    i15 = half * np.einsum("...j,j", rows, _W15)
    i7 = half * np.einsum("...j,j", rows[..., 1::2], _W7)
    resabs = np.abs(half) * np.einsum("...j,j", np.abs(rows), _W15)
    raw = np.abs(i15 - i7)
    # rescaled error estimate; guards against |I15-I7| underestimating on
    # smooth integrands (same shape as the classic QUADPACK heuristic)
    with np.errstate(divide="ignore", invalid="ignore"):
        rescaled = np.maximum(raw, resabs * np.minimum(1.0, (200.0 * raw / resabs) ** 1.5))
    return i15, np.where(resabs > 0, rescaled, raw)


def _adaptive(f: Integrand, seeds: Sequence[float], spec: QuadratureSpec) -> QuadratureResult:
    """Adaptively bisect the seeded panels until every channel meets the
    tolerance on its own running value.

    Works in rounds, each one integrand call: the seed pass, then both
    halves of every panel split in a round. A round ranks the panels by
    their worst channel's err/tol and splits the shortest prefix of that
    ranking whose removal leaves an error within tolerance in every channel
    (at least one panel, at most what ``max_panels`` still allows).
    """
    if len(seeds) - 1 > spec.max_panels:
        # the panel budget is a hard cap; fall back to a uniform coarse seeding
        seeds = np.linspace(seeds[0], seeds[-1], spec.max_panels + 1)
    seeds = np.asarray(seeds, dtype=float)
    a, b = seeds[:-1], seeds[1:]
    val, err = _gk15(f, a, b)
    while True:
        value, err_sum = val.sum(axis=1), err.sum(axis=1)
        tol = spec.rel_tol * np.abs(value) + spec.abs_floor
        converged = bool(np.all(err_sum <= tol))
        if converged or len(a) >= spec.max_panels:
            break
        mid = 0.5 * (a + b)
        splittable = np.flatnonzero((a < mid) & (mid < b))  # not exhausted at float resolution
        if not splittable.size:
            break
        # the tolerance is floored so that a zero channel under abs_floor = 0
        # divides by no zero
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


def integrate_evanescent(
    f: Integrand,
    z: float,
    spec: QuadratureSpec = QuadratureSpec(),
    breakpoints: Iterable[float] = (),
) -> QuadratureResult:
    """Integrate f(t) over [0, inf) for integrands decaying at least as
    exp(-2 t z), such as the planar integrands on the steepest-descent path
    k_perp = k0 + i t or the evanescent axis k_perp = i t.

    Uses the substitution u = 2 t z, truncating at
    spec.evanescent_cutoff_u; panels are seeded at fixed u, where the decay
    sets the scale. ``breakpoints`` are t values (branch points, the scale
    on which f itself varies) added to the panel seeds. ``f`` is called
    once per refinement round with an (n, 15) array of panel nodes, returns
    (channels, n, 15) values, and converges channel by channel.
    """
    if z <= 0:
        raise ValueError("evanescent integral requires z > 0")
    umax = spec.evanescent_cutoff_u
    scale = 1.0 / (2.0 * z)
    inner = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 28.0] + [2.0 * z * b for b in breakpoints]
    seeds = sorted({0.0, umax, *(u for u in inner if 0.0 < u < umax)})
    res = _adaptive(lambda u: f(u * scale), seeds, spec)
    return QuadratureResult(
        res.value * scale, res.err_estimate * scale, res.panels_used, res.converged
    )
