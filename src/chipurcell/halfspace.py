"""Planar-interface physics: reflection coefficients for a vacuum /
chiral-medium interface, closed-form decay rates in the retarded and
nonretarded limits (perfect chiral mirror and realistic half-space), and the
numerical-quadrature pathway valid at any distance.

Geometry: vacuum fills z > 0, the reflecting medium z < 0, the molecule
sits at height z_m > 0. A perfect chiral mirror rotates reflected
polarization by pi/2 (cross coefficients +-1, diagonal ones zero); a
realistic chiral half-space has all four coefficients, with the cross ones
odd in the medium's kappa and obeying r_ps = -r_sp (reciprocity).

Every planar rate, closed form or numeric, is one contraction of its Green
tensors: each limit gives five entries as Python floats, ``_tensors`` lays
them out as rows and ``_planar_rates`` applies the master formulas of
chipurcell.rates (the ``PLANAR_PAPER`` ordering) to those rows, through the
one contraction ``rates.contract``; no 3x3 array is built on the way. Every
reflection set is the triple (r_ss, r_pp, r_sp), r_ps = -r_sp; the cross
coefficient of ``planar_reflections`` is oriented so that its large
k-parallel limit coincides with ``fresnel_nonretarded``.

The numeric pathway (``scatter_numeric``) evaluates the exact wavevector
integrals of the scattering Green's tensor of a half-space and is the
physical arbiter between the two closed-form limits. Their contour in the
vacuum perpendicular wave number is deformed onto the steepest-descent
path x = k_perp/k0 = 1 + i tau, on which exp(2i k_perp z) decays like
exp(-2 k0 z tau) without oscillating, so one adaptive integral over tau
covers any distance. It is seeded at powers of two on the scales of the
decay and of the reflections, so distances meet the same panels, and each
seed array keeps its seed round (its checked panel ends and their nodes),
built the first time a point uses it. Branch cuts inside the swept strip
are integrated around as hairpins in the same integrand (deformed
Sommerfeld contours: Paulus, Gay-Balmaz & Martin, PRE 62, 5797 (2000)); a
reflection pole inside it, which only gain can put there, raises
PoleError. One function (``_assemble``) turns the four channel totals into
tensor entries, and the reflections come from one cached per-medium plan
(``_plan``), in units of k0, shared with ``planar_reflections``. The same
plan keeps the integrand's node values per panel before the distance
enters (``_Plan.kept_at``), as the quadrature's table of them where no
hairpin needs a phase, so a sweep over distances evaluates each panel of a
medium once, and a round it has seen whole is served by one lookup. The
perfect mirror's reflections are constant, so its totals are elementary
(``_mirror_totals``): they are assembled the same way, and no quadrature
runs.

For lossless media the near-field chiral response stays bounded as z -> 0
(every evanescent-tail contribution to the curl is real there), whereas the
nonretarded closed forms diverge as 1/z^2; the two therefore agree only for
the mirror, whose cross coefficients are real.
See ``rates_halfspace`` and the test suite for the documented comparison.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import operator
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constants import CONSTANTS
from .errors import LosslessRequiredError, PhysicsError, PoleError, QuadratureError
from .media import MediumResponse
from .molecules import TransitionDipoles
from .rates import (
    Contraction,
    Method,
    RateBreakdown,
    _ends_typed,
    degree_of_discrimination,
    gamma_ch_from_curl,
    gamma_el_from_img,
    gamma_vacuum,
)
from .sommerfeld import QuadratureResult, QuadratureSpec, _Seeds, integrate, tabulate


# the k0 z ranges in which the closed forms hold: the nonretarded limit
# below NONRETARDED_BELOW, the retarded one above RETARDED_ABOVE
NONRETARDED_BELOW = 0.1
RETARDED_ABOVE = 10.0


class Handedness(enum.Enum):
    RIGHT = "right"
    LEFT = "left"

    @property
    def sign(self) -> float:
        return 1.0 if self is Handedness.RIGHT else -1.0


class Limit(enum.Enum):
    RETARDED = "retarded"
    NONRETARDED = "nonretarded"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class PlanarGeometry:
    """Molecule at height z_m above the interface.

    ``handedness`` applies to the perfect mirror, ``medium`` to the
    realistic half-space.
    """

    z_m: float
    handedness: Optional[Handedness] = None
    medium: Optional[MediumResponse] = None

    def __post_init__(self):
        if not (self.z_m > 0):
            raise PhysicsError(f"z_m must be positive, got {self.z_m}")


# ---------------------------------------------------------------------------
# Reflection coefficients
# ---------------------------------------------------------------------------

# the bytes of each plan's slab of kept panels (``_Plan.kept_at``), and of
# the panels it keeps plus their round index: 273 panels of 1,440 B (the table
# of a plan with no hairpin); with the 128 plans ``_plan`` caches, at most
# 48 MiB of address space, of which only the filled part is resident
_STORE_BYTES = 384 * 1024


class _Plan:
    """One medium's plan, in units of k0, built once per (eps, mu, kappa)
    by ``_plan``. It holds the constants of the reflections, which depend on
    eps, mu and kappa only (the reflections on them and on x = k_perp/k0),
    and what the numeric pathway keeps of the medium's panels (``kept_at``).
    Mode arrays are read-only, modes first (0 is k_plus, 1 is k_minus),
    with K = k/k0. Raises ``PhysicsError`` for eps = 0 or mu = 0, where the
    impedance sqrt(mu/eps) is 0 or infinite, for a circular wave number K
    beyond the float range, and for one whose square vanishes against k0^2
    (kappa = +-n_r), which alpha = K^2 - 1 cannot hold.

    What a panel keeps is kept per panel of tau and shared by every
    distance. The path's panels are fixed intervals of tau
    (``_path_seeds``), so a panel's centre and last node name it at any
    distance, and its 15 nodes are the same floats whichever round asks for
    them. A plan with no hairpin keeps the table (``sommerfeld.tabulate``) of
    the four channels of ``_CHANNELS`` on the path, which takes the decay
    exp(-2 k0 z tau) of any distance as node weights. A plan with hairpins
    keeps the values of the path and, for each hairpin, the left side's
    minus the right side's: they combine with the hairpin phases, which
    depend on the distance, before the modulus, so their table is built
    every round. A round is indexed under one key, the bytes of its panels'
    centres and last nodes, once all its panels are kept (a round of new
    panels only, on its next visit), so that from then on it is served by
    one lookup and one ``take``; a round not indexed is found panel by
    panel. The slab is allocated once, at the panels ``_STORE_BYTES``
    holds, and the kept panels and the round index share that budget; past
    it, panels are evaluated whenever asked for, to the same values (a
    node's value does not depend on the batch it is evaluated in), and no
    more rounds are indexed. With the 128 plans ``_plan`` caches, the slabs
    reserve at most 48 MiB of address space."""

    def __init__(self, eps: complex, mu: complex, kappa: complex):
        if eps == 0 or mu == 0:
            raise PhysicsError(f"planar reflections need nonzero eps and mu, got eps = {eps!r}, mu = {mu!r}")
        unit = MediumResponse(eps, mu, kappa, CONSTANTS.c)  # k0 = 1
        k_plus, k_minus = unit.k_plus, unit.k_minus
        if not (cmath.isfinite(k_plus) and cmath.isfinite(k_minus)):
            raise PhysicsError(
                f"the circular wave numbers leave the float range: k+/k0 = {k_plus!r}, k-/k0 = {k_minus!r}")
        cuts = {}
        for mode, k in enumerate((k_plus, k_minus)):
            if (k * k).imag < 0:
                cuts.setdefault(cmath.sqrt(1.0 - k * k), []).append(mode)
        k = np.array([k_plus, k_minus])
        self.alpha = k * k - 1.0  # K^2 - 1
        if (self.alpha == -1.0).any():
            raise PhysicsError(
                f"a circular wave number vanishes (kappa = +-n_r): k+/k0 = {k_plus!r}, k-/k0 = {k_minus!r}"
            )
        self.c = np.sqrt(mu / eps) / k  # sqrt(mu/eps) / K
        self.alpha.flags.writeable = self.c.flags.writeable = False
        self.e = eps / mu
        self.cross = 2j * np.sqrt(eps / mu)  # the prefactor of r_sp
        # (x_b, modes) of each vertical branch cut: x_b = sqrt(1 - K^2) of the
        # modes with Im K^2 < 0, whose root is cut vertically upward from x_b.
        # A mode with Im K^2 >= 0 keeps the Im >= 0 root, which is analytic over
        # the strip 0 <= Re x <= 1, Im x >= 0. A mode with Im K^2 < 0 (gain, or
        # a lossy |kappa| > Re n) has x_b in the first quadrant, where the
        # Im >= 0 root jumps along a curve running right from x_b. Its root is
        # cut vertically instead, which changes no value on the real segment or
        # the imaginary axis; when Re x_b < 1 the cut lies inside the strip and
        # the numeric pathway integrates around it.
        self.cuts = tuple((x_b, tuple(modes)) for x_b, modes in cuts.items())
        # x_b of each cut inside the strip: the path carries its hairpin
        self.hairpins = tuple(x_b for x_b, _ in self.cuts if x_b.real < 1.0)
        # the lines x = start + i tau of _evaluate: the path, the left side of
        # each hairpin, then the right sides, one float right of x_b, where
        # _amplitudes negates the roots of the modes cut there
        starts = np.array([1.0, *self.hairpins, *(complex(math.nextafter(x_b.real, 2.0), x_b.imag)
                                                  for x_b in self.hairpins)])
        self._re, self._im = starts.real.reshape(-1, 1, 1), starts.imag.reshape(-1, 1, 1)
        rows = 1 + len(self.hairpins)
        self._slots = {}  # (centre, last node) of a panel -> its index on axis 0 of _kept
        self._rounds = {}  # the key of a round whose panels are all kept -> their slots
        # (panels, ...), allocated once for the panels _STORE_BYTES holds: a panel
        # keeps a (nodes, 3 x channels) table of reals, or (rows, nodes, channels)
        # complex values, and a page of the slab becomes resident only when a
        # panel is written to it
        shape, dtype = ((15, 12), np.dtype(float)) if rows == 1 else ((rows, 15, 4), np.dtype(complex))
        self._panel_bytes = math.prod(shape) * dtype.itemsize
        self._kept = np.empty((_STORE_BYTES // self._panel_bytes, *shape), dtype=dtype)
        self._free = _STORE_BYTES  # the bytes that kept panels and round index may still take
        self._lock = threading.Lock()

    @functools.cached_property
    def poles(self) -> tuple:
        """Reflection poles inside the strip (see ``_strip_poles``), found
        on first use: only the numeric pathway needs them."""
        return _strip_poles(self)

    def kept_at(self, tau: np.ndarray) -> np.ndarray:
        """What the plan keeps of the panels of one round, whose (panels, 15)
        nodes are ``tau``, as a new array, panels first: with no hairpin the
        (panels, 15, 12) table of their values (``sommerfeld.tabulate``), and
        with hairpins their (panels, 1 + hairpins, 15, channels) values. Only
        the panels not kept are evaluated, in one call of ``_amplitudes`` and
        ``_reflections``, and kept; a round they would not fit in is
        evaluated whole and kept nowhere. PoleError, with nothing kept, if
        a value is not finite."""
        key = tau[:, 7::7].tobytes()  # the centre and last node of each panel
        with self._lock:  # two threads must not fill the same free slots
            slots = self._rounds.get(key)
            if slots is None:
                keys = list(zip(tau[:, 7].tolist(), tau[:, 14].tolist()))
                slots = [self._slots.get(panel, -1) for panel in keys]
                new = [i for i, slot in enumerate(slots) if slot < 0]
                if len(new) * self._panel_bytes > self._free:
                    return self._evaluate(tau)
                if new:
                    fresh = len(new) == len(keys)  # a cold round: its values are the round's
                    kept = self._evaluate(tau if fresh else tau[new])
                    first = len(self._slots)
                    self._kept[first:first + len(new)] = kept
                    for slot, i in enumerate(new, first):
                        slots[i] = self._slots[keys[i]] = slot
                    self._free -= len(new) * self._panel_bytes
                    if fresh:  # returned as evaluated, and indexed if it comes again
                        return kept
                slots = np.array(slots)  # every panel kept: index the round, if it fits
                size = sys.getsizeof(key) + sys.getsizeof(slots)
                if size <= self._free:
                    self._free -= size
                    self._rounds[key] = slots
            return self._kept.take(slots, axis=0)

    def _evaluate(self, tau: np.ndarray) -> np.ndarray:
        x = np.empty((len(self._re),) + tau.shape, dtype=complex)
        x.real, x.imag = self._re, self._im + tau  # with no complex arithmetic
        out = np.empty((len(self._re), 4) + tau.shape, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            r_ss, r_pp, r_sp, r_diff = _reflections(self, _amplitudes(self, x))
            x2 = x * x
            par = 1.0 - x2  # k_par^2 / k0^2
            np.multiply(r_sp, par, out=out[:, 0])  # curl xx
            np.multiply(x, r_diff, out=out[:, 1])  # curl x-y
            np.subtract(r_ss, x2 * r_pp, out=out[:, 2])  # G xx over i
            np.multiply(par, r_pp, out=out[:, 3])  # G zz over 2i
        if not np.isfinite(out).all():
            bad = x[~np.isfinite(out).all(axis=1)][0]
            raise PoleError(f"planar integrand not finite at k_perp = {complex(bad)!r} k0")
        rows = 1 + len(self.hairpins)
        if rows == 1:
            return tabulate(out[0])
        np.subtract(out[1:rows], out[rows:], out=out[1:rows])  # each hairpin: left minus right
        # laid out as the slab returns them, so that a round combines its rows
        # by the same array operations, stored or not, into values whose table
        # is one contiguous copy
        return np.ascontiguousarray(out[:rows].transpose(2, 0, 3, 1))


# the plan of a medium (``_Plan``), built once per (eps, mu, kappa)
_plan = functools.lru_cache(maxsize=128)(_Plan)


def _amplitudes(plan: _Plan, x: np.ndarray) -> np.ndarray:
    """Mode amplitudes a(+-) = sqrt(mu/eps) q(+-) / (x K(+-)) at
    x = k_perp/k0, modes first, with q = sqrt(x^2 + K^2 - 1) the Im >= 0
    root, negated right of a vertical cut of the plan (where the continued
    root is minus the principal one). On the cut itself (Re x = Re x_b) it
    is the root of the left side. The caller sets numpy's error state: an
    exact pole gives non-finite entries."""
    modes = (2,) + (1,) * x.ndim
    q = np.sqrt(plan.alpha.reshape(modes) + x * x)
    flip = q.imag < 0
    for x_b, cut in plan.cuts:
        flip[list(cut)] |= x.real > x_b.real
    np.negative(q, out=q, where=flip)
    return plan.c.reshape(modes) * q / x


def _reflections(plan: _Plan, a: np.ndarray) -> tuple:
    """(r_ss, r_pp, r_sp, r_ss - r_pp) from the mode amplitudes ``a`` of
    ``_amplitudes``; the caller sets numpy's error state. The difference is
    formed as 2 (1 - e)(a+ + a-) / d, e = eps/mu, not by subtraction: it is
    exactly zero for a dual-symmetric medium (eps = mu), where the
    difference of the two O(1) coefficients would be round-off."""
    p, b = 1.0 + a, 1.0 + plan.e * a
    m, nb = 1.0 - a, 2.0 - b  # 2 - b = 1 - e a
    d = p[1] * b[0] + p[0] * b[1]
    r_sp = plan.cross * (a[0] - a[1]) / d
    r_ss = (p[1] * nb[0] + p[0] * nb[1]) / d
    r_pp = (m[1] * b[0] + m[0] * b[1]) / d
    return r_ss, r_pp, r_sp, 2.0 * (1.0 - plan.e) * (a[0] + a[1]) / d


def _strip_poles(plan: _Plan) -> tuple:
    """Reflection poles strictly inside the strip 0 < Re x < 1, Im x > 0,
    x = k_perp/k0.

    A pole is a zero of the denominator d = 2 + (1 + e)(a+ + a-) + 2e a+ a-
    of ``_reflections`` (e = eps/mu). Per mode, a = c Q/x, c^2 = mu/(eps K^2),
    Q^2 = x^2 + alpha, alpha = K^2 - 1, and squaring out both roots leaves a
    quartic in y = x^2,

        L(y)^2 = 4 c+^2 c-^2 (1 - e)^4 y^2 Q+^2 Q-^2,
        L(y) = 4 y^2 + 4 e^2 c+^2 c-^2 Q+^2 Q-^2
               - (1 + e)^2 y (c+^2 Q+^2 + c-^2 Q-^2),

    whose roots hold the zeros of d on both branches of each root. Each
    root near the strip is polished by Newton steps on d itself
    (a' = -a alpha / (x (x^2 + alpha))) and kept if d vanishes there on the
    branch ``_amplitudes`` takes. Passive media have none inside (their
    surface modes lie left of the imaginary axis); gain can move one in.
    Poles on the strip's edge (the lossless surface plasmon on the
    imaginary axis, the normal-incidence pole of a gain mode at x = 1) lie
    on the contours, not between them.
    """
    e = plan.e
    alpha = plan.alpha
    # a medium beyond the float range ends in an OverflowError of a Python
    # power or in the PhysicsError below; a root that Newton throws off to a
    # non-finite value fails the pole test
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c2 = 1.0 / (e * (alpha + 1.0))
        cc, s, p = c2.prod(), alpha.sum(), alpha.prod()
        l2 = 4.0 + 4.0 * e * e * cc - (1.0 + e) ** 2 * c2.sum()
        l1 = 4.0 * e * e * cc * s - (1.0 + e) ** 2 * (c2 @ alpha)
        l0 = 4.0 * e * e * cc * p
        r = 4.0 * cc * (1.0 - e) ** 4
        quartic = [
            l2 * l2 - r, 2.0 * l1 * l2 - r * s, l1 * l1 + 2.0 * l0 * l2 - r * p, 2.0 * l0 * l1, l0 * l0,
        ]
        if not np.isfinite(quartic).all():
            raise PhysicsError(f"the reflection-pole quartic leaves the float range at eps/mu = {e!r}")
        x = np.sqrt(np.roots(quartic).astype(complex))  # Re >= 0: the half-plane of the strip
        x = x[(x.real > -1e-3) & (x.real < 1.0 + 1e-3) & (x.imag > -1e-3)]
        alpha = alpha[:, None]
        for _ in range(4):
            a = _amplitudes(plan, x)
            da = -a * alpha / (x * (x * x + alpha))
            x = x - (2.0 + (1.0 + e) * a.sum(axis=0) + 2.0 * e * a.prod(axis=0)) / (
                (1.0 + e) * da.sum(axis=0) + 2.0 * e * (da[0] * a[1] + a[0] * da[1]))
        a = _amplitudes(plan, x)
        terms = np.array([np.full_like(x, 2.0), (1.0 + e) * a.sum(axis=0), 2.0 * e * a.prod(axis=0)])
        pole = np.abs(terms.sum(axis=0)) <= 1e-6 * np.abs(terms).sum(axis=0)
    edge = 1e-12
    return tuple(complex(v) for v in x[pole & (x.real > edge) & (x.real < 1.0 - edge) & (x.imag > edge)])


def planar_reflections(med: MediumResponse, k_perp) -> tuple:
    """(r_ss, r_pp, r_sp) of the vacuum / chiral-medium interface as arrays
    over the complex vacuum perpendicular wave number k_perp (real on the
    traveling segment, i kappa_perp on the evanescent tail, k0 + i t on the
    steepest-descent path of the numeric pathway); r_ps = -r_sp.

    Built from the mode amplitudes
    a(+-) = sqrt(mu/eps) (k0/k_perp) sqrt(k(+-)^2 - k0^2 + k_perp^2) / k(+-),
    evaluated in x = k_perp/k0 with the medium's cached plan (``_plan``), so
    no k_par is formed and a grazing k_perp keeps its full precision. The
    roots are on the Im >= 0 branch on the real segment and the imaginary
    axis, and continue analytically over the strip 0 <= Re k_perp <= k0,
    Im k_perp >= 0 except on the vertical branch cut of a mode with
    Im k(+-)^2 < 0 (see ``_Plan.cuts``). At kappa = 0 the diagonal
    coefficients reduce to the textbook dielectric Fresnel coefficients and
    r_sp = 0; for k_perp -> i infinity the set tends to
    ``fresnel_nonretarded``. An exact pole (k_perp = 0, or a vanishing
    denominator) gives non-finite entries.
    """
    plan = _plan(med.eps, med.mu, med.kappa)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _reflections(plan, _amplitudes(plan, np.asarray(k_perp, dtype=complex) / med.k0))[:3]


def fresnel_nonretarded(med: MediumResponse) -> tuple:
    """k-independent (r_ss, r_pp, r_sp) governing the near field (k_par >> k0).

    r_sp = 2 i kappa / (eps mu - kappa^2 + eps + mu + 1), with diagonal
    coefficients even in kappa. Purely imaginary r_sp for lossless media.
    """
    eps, mu, kap = med.eps, med.mu, med.kappa
    den = eps * mu - kap * kap + eps + mu + 1.0
    if den == 0:
        raise PoleError("nonretarded reflection denominator vanished")
    r_sp = 2j * kap / den
    r_ss = (eps * mu - kap * kap - eps + mu - 1.0) / den
    r_pp = (eps * mu - kap * kap + eps - mu - 1.0) / den
    return r_ss, r_pp, r_sp


def fresnel_retarded(med: MediumResponse) -> tuple:
    """Normal-incidence (r_ss, r_pp, r_sp) governing the far field.

    Uses the circular wave numbers through their moduli,

        r_sp = 2i (k+ |k-| - k- |k+|) / D,
        r_ss = [2(k+ k- - |k+ k-|) - ((eps-mu)/n_r)(k+|k-| + k-|k+|)] / D,
        r_pp = [2(k+ k- - |k+ k-|) + ((eps-mu)/n_r)(k+|k-| + k-|k+|)] / D,
        D    = 2(k+ k- + |k+ k-|) + ((eps+mu)/n_r)(k+|k-| + k-|k+|),

    so the cross coefficient vanishes for real parameters (|k| = k then) and
    only absorbing chiral media reflect with polarization rotation at normal
    incidence. At kappa = 0 the diagonal coefficients reduce to
    +-(sqrt(mu) - sqrt(eps))/(sqrt(mu) + sqrt(eps)). Numerators and D are
    all of degree two in k+-, so it takes them in units of k0,
    k+-/k0 = n_r -+ kappa, and depends on eps, mu and kappa only.
    """
    eps, mu, n_r = med.eps, med.mu, med.n_r
    kp, km = n_r - med.kappa, n_r + med.kappa
    if n_r == 0:
        raise PhysicsError(f"retarded reflections need a nonzero index, got eps = {eps!r}, mu = {mu!r}")
    akp, akm = abs(kp), abs(km)
    mixed = kp * akm + km * akp
    pure = kp * km
    apure = abs(kp * km)
    d = 2.0 * (pure + apure) + (eps + mu) / n_r * mixed
    if d == 0:
        raise PoleError("retarded reflection denominator vanished")
    r_sp = 2j * (kp * akm - km * akp) / d
    r_ss = (2.0 * (pure - apure) - (eps - mu) / n_r * mixed) / d
    r_pp = (2.0 * (pure - apure) + (eps - mu) / n_r * mixed) / d
    return r_ss, r_pp, r_sp


# ---------------------------------------------------------------------------
# Numeric pathway
# ---------------------------------------------------------------------------

# the channels of scatter_numeric, in order; curl zz is twice curl xx
_CHANNELS = ("curl xx", "curl x-y", "G xx", "G zz")
# the path's totals are of the order of |r| (2 k0 z)^-3 (the mirror's moment
# is 2/(2 k0 z)^3, ``_mirror_totals``), past the float range below this k0 z
# (about 8.9e-104); a reflection above 1/2 overflows them a little above it,
# and ``_tensors`` refuses what overflowed
_K0Z_MIN = 0.5 / float(np.finfo(float).max) ** (1.0 / 3.0)


def _run_quadrature(res: QuadratureResult) -> np.ndarray:
    if res.converged:
        return res.value
    if np.isinf(res.value).any():  # integrate stops at a total past the float range
        raise PhysicsError("the arithmetic left the float range: the path's totals overflow")
    # accept a degraded-but-bounded estimate; hard failure above 1e-4
    # relative, and a NaN value or error fails too
    failed = ~(res.err_estimate <= 1e-4 * np.abs(res.value))
    if not failed.any():
        return res.value
    i = int(np.argmax(failed))  # the first failing channel
    raise QuadratureError(
        f"steepest-descent quadrature did not converge in channel {_CHANNELS[i]} "
        f"(err={res.err_estimate[i]:.3e}, value={abs(res.value[i]):.3e}, "
        f"panels={res.panels_used})"
    )


def _path_seeds(k0z: float) -> _Seeds:
    """The seeds in tau of the path: 0, then powers of two in two runs. The
    first covers the scales on which the reflections vary, 1/4 to 8; the
    second the decay, from half its scale 2^floor(log2(1/(2 k0 z))) to the
    first power at or past the end 40/(2 k0 z) of an e^-40 tail (far below
    any realistic tolerance). Far out, the decay scale starts the first run
    and the end stops it, and the runs merge. Below k0 z = 1/128 one panel
    bridges 8 and the second run, where the reflections hardly vary and the
    decay has not begun, so a point has 7 to 15 seed panels at any
    distance. Each seed is fixed over an octave of k0 z, and every panel but
    the bridge, and every half of one, is a dyadic interval that every
    distance meets. Distances with equal seeds share one ``_Seeds`` tuple
    (``_seeds_between``), which keeps its seed round once a point has used
    it."""
    first = math.frexp(1.0 / (2.0 * k0z))[1] - 1  # floor(log2): frexp's mantissa is in [1/2, 1)
    mantissa, exponent = math.frexp(40.0 / (2.0 * k0z))
    return _seeds_between(min(-2, first), max(4, first - 1), exponent - 1 if mantissa == 0.5 else exponent)


# the float range holds about 2,700 seed arrays; one with its seed round takes about 3 kB
@functools.lru_cache(maxsize=None)
def _seeds_between(near: int, decay: int, last: int) -> _Seeds:
    """``_path_seeds``: 0, 2^near to 2^min(3, last) and 2^decay to 2^last,
    keyed on the exponents that decide them, so equal seeds are one object."""
    powers = (*range(near, min(3, last) + 1), *range(decay, last + 1))
    return _Seeds([0.0, *(math.ldexp(1.0, j) for j in powers)])


def scatter_numeric(
    geom: PlanarGeometry,
    omega: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> tuple[np.ndarray, np.ndarray]:
    """(curl Im G, Im G) of the scattering Green's tensor at the molecule in
    front of the half-space ``geom.medium``: two real 3x3 arrays, in units
    of 1/m^2 and 1/m.

    Both are azimuth-reduced radial integrals over the vacuum k_perp,

        curl G = (k0/8pi) int_C dk_perp e^{2 i k_perp z}
                 { r_sp (k_par^2/k0^2) [(xx + yy) + 2 zz]
                   + (k_perp/k0)(r_ss - r_pp)(xy - yx) },
        G      = (i/8pi) int_C dk_perp e^{2 i k_perp z}
                 { (r_ss - (k_perp^2/k0^2) r_pp)(xx + yy) + (2 k_par^2/k0^2) r_pp zz },

    with k_par^2 = k0^2 - k_perp^2 (k_par from 0 to inf) and C the
    evanescent axis k_perp = i kappa_perp, kappa_perp from inf to 0,
    followed by the traveling segment [0, k0]. The diagonal curl block is
    driven by the cross reflection, the antisymmetric x-y block by the
    difference of the diagonal reflections; the cross terms of G integrate
    to zero at coincidence. One integrand carries the four channels of
    ``_CHANNELS``: curl G xx (= yy) and x-y (= -yx), and G xx (= yy) and
    zz; curl G zz is twice curl G xx, set at assembly.

    By Cauchy's theorem C is deformed onto the steepest-descent path
    x = k_perp/k0 = 1 + i tau, tau in [0, inf), on which exp(2i k_perp z)
    decays like exp(-2 k0 z tau) without oscillating, so the panel count
    does not grow with z. One ``sommerfeld.integrate`` over tau, truncated
    at an e^-40 tail, is seeded at powers of two (``_path_seeds``), and each
    refinement round evaluates one stack of lines x = start + i tau: the
    path, and both sides of every vertical branch cut inside the swept
    strip, whose difference (a hairpin) enters with its constant phase
    exp(2i k0 z (x_b - 1)). Those values do not depend on the distance: the
    medium's plan keeps them per panel (``_Plan.kept_at``), a round
    evaluates only the panels it lacks, and a round whose panels are all
    kept is found by one lookup. The real decay exp(-2 k0 z tau) enters the
    integral as node weights (``sommerfeld.integrate``'s decay), so a plan
    with no hairpin keeps each panel's table (``sommerfeld.tabulate``) and its
    integrand is the lookup alone; with hairpins, the integrand's own work
    per round is the hairpin phases and the table of the combined values.
    ``_assemble`` applies the rest of exp(2i k_perp z) to the totals, and
    ``_tensors`` lays the entries out. A pole inside the strip (possible only with gain)
    raises PoleError, and a k0 z so small that the totals overflow
    PhysicsError.
    """
    if geom.medium is None:
        raise PhysicsError("the planar numeric pathway requires a medium")
    curl, img_g = _tensors(*_halfspace_entries(geom, omega, Limit.NUMERIC, spec))
    return np.array(curl), np.array(img_g)


def _path_totals(med: MediumResponse, k0z: float, spec: QuadratureSpec) -> list:
    """The four complex totals of the ``_CHANNELS`` over tau on the path,
    the one integral of ``scatter_numeric``, as Python complex numbers; a
    vacuum half-space, which has no interface, has exact zeros."""
    if (med.eps, med.mu, med.kappa) == (1, 1, 0):
        return [0j] * 4
    plan = _plan(med.eps, med.mu, med.kappa)
    if plan.poles:
        raise PoleError(
            f"reflection pole at k_perp = {plan.poles[0]!r} k0 between the real-axis contour and "
            "the steepest-descent path (a medium with gain); the numeric pathway does not "
            "integrate around it"
        )
    if k0z < _K0Z_MIN:
        raise PhysicsError(f"the arithmetic left the float range at k0 z = {k0z!r}: the path's totals, "
                           "of order (2 k0 z)^-3, overflow")
    integrand = plan.kept_at  # the tables of a plan with no hairpin
    if plan.hairpins:
        phases = [cmath.exp(2j * k0z * (x_b - 1.0)) for x_b in plan.hairpins]  # relative to the path

        def integrand(tau: np.ndarray) -> np.ndarray:
            rows = plan.kept_at(tau)
            total = rows[:, 0]
            for j, phase in enumerate(phases, 1):
                side = rows[:, j]
                side *= phase
                total += side
            return tabulate(total.transpose(2, 0, 1))

    # totals past the float range, which _tensors refuses, at any k0 z: the
    # reflections of a medium _Plan accepts have no bound on the path (eps one
    # float above -1 overflows them at k0 z 1e-80), so no k0 z is safe; the
    # error estimate of an overflowed panel is then inf/inf
    with np.errstate(over="ignore", invalid="ignore"):
        res = integrate(integrand, _path_seeds(k0z), spec, -2.0 * k0z)  # the decay exp(-2 k0 z tau)
    return _run_quadrature(res).tolist()


def _assemble(totals, k0: float, k0z: float) -> tuple:
    """The five entries of ``_tensors`` (curl Im G xx, zz, x-y; Im G xx,
    zz), in 1/m^2 and 1/m, from the four complex totals of the
    ``_CHANNELS`` over tau on the path x = 1 + i tau, whose phase
    exp(2i k0 z) multiplies them once here; curl zz is twice curl xx."""
    phase = cmath.exp(2j * k0z)
    xx, asym, g_xx, g_zz = [phase * total for total in totals]
    # the t = k0 tau Jacobian, and the prefactors -i k0/(8 pi) of curl G and
    # i/(8 pi) of G, whose channels are written over i and 2i
    pre = k0 / (8.0 * np.pi)
    xx = -pre * k0 * xx.real
    return xx, 2.0 * xx, -pre * k0 * asym.real, pre * g_xx.imag, 2.0 * pre * g_zz.imag


def _mirror_totals(geom: PlanarGeometry, k0z: float) -> tuple:
    """The ``_CHANNELS`` totals of the perfect chiral mirror: the integral
    of ``scatter_numeric`` in closed form.

    Its reflections are constant (r_ss = r_pp = 0, r_sp = +-1), so only the
    curl xx channel is nonzero, and on the path x = 1 + i tau it is
    +-int_0^inf (tau^2 - 2i tau) e^{-s tau} dtau = +-(2/s^3 - 2i/s^2) with
    s = 2 k0 z. It is assembled as the quadrature totals are
    (``_assemble``), into curl Im G = diag(xx, xx, 2 xx) with
    xx -> -+1/(32 pi k0 z^3) in the near field and -+sin(2 k0 z)/(16 pi z^2)
    in the far field: the entries of the two closed forms.
    """
    u = 1.0 / (2.0 * k0z)  # 1/s: its powers vanish in the far field rather than overflow
    return geom.handedness.sign * (2.0 * u**3 - 2j * u**2), 0j, 0j, 0j


def _tensors(xx: float, zz: float, xy: float, g_xx: float, g_zz: float) -> tuple[tuple, tuple]:
    """(curl Im G, Im G) in front of a planar interface, each as its three
    rows of Python floats, from the five entries its symmetry about z
    leaves: curl Im G xx (= yy), zz and x-y (= -y-x), in 1/m^2, and Im G
    xx (= yy) and zz, in 1/m. PhysicsError where an entry, or the trace an
    isotropic contraction sums, has left the float range: no contraction
    meets an infinity."""
    # sums of Python floats: they overflow to inf silently, where numpy's warn
    if not (math.isfinite(xx + xx + zz + xy) and math.isfinite(g_xx + g_xx + g_zz)):
        raise PhysicsError("the arithmetic left the float range: curl Im G xx, zz, x-y = %g, %g, %g; "
                           "Im G xx, zz = %g, %g" % (xx, zz, xy, g_xx, g_zz))
    return (((xx, xy, 0.0), (-xy, xx, 0.0), (0.0, 0.0, zz)),
            ((g_xx, 0.0, 0.0), (0.0, g_xx, 0.0), (0.0, 0.0, g_zz)))


# ---------------------------------------------------------------------------
# Planar rates
# ---------------------------------------------------------------------------

# (comparison, symbol, bound): the k0 z on which each closed form leaves its range
_OUT_OF_RANGE = {
    Limit.RETARDED: (operator.lt, "<", RETARDED_ABOVE),
    Limit.NONRETARDED: (operator.gt, ">", NONRETARDED_BELOW),
}


def _warn_limit(limit: Limit, k0z: float):
    if limit in _OUT_OF_RANGE:
        outside, symbol, bound = _OUT_OF_RANGE[limit]
        if outside(k0z, bound):
            warnings.warn(f"{limit.value} closed form used at omega z/c = {k0z:.3g} {symbol} {bound:g}; "
                          "accuracy degrades, consider the numeric method", UserWarning, stacklevel=3)


def _round_trip(w: float, z: float) -> float:
    """The retarded forms' round-trip phase 2 w z / c. Raises OverflowError
    where it leaves the float range, as a power of z_m does."""
    arg = 2.0 * w * z / CONSTANTS.c
    if arg == math.inf:
        raise OverflowError("2 w z / c is not finite")
    return arg


@_ends_typed
def _planar_rates(geom: PlanarGeometry, mol: TransitionDipoles, method: Method, nd_with_el: bool,
                  entries: Callable[..., tuple], *args) -> RateBreakdown:
    """The one tail of every planar rate: lays out the five entries of
    ``entries(geom, omega, *args)`` (``_tensors``) and contracts them with
    the master formulas (``PLANAR_PAPER`` ordering) into vacuum plus
    scattering rates, s_disc = g_ch / g_nd with g_nd = g_vac (+ g_el where
    ``nd_with_el``). A tensor whose entries all vanish is not contracted:
    its rate is 0.0, never a -0.0 of signed zeros. An OverflowError or
    ZeroDivisionError of the entries raises PhysicsError."""
    xx, zz, xy, g_xx, g_zz = entries(geom, mol.omega_ik, *args)
    curl, img_g = _tensors(xx, zz, xy, g_xx, g_zz)
    g_ch = gamma_ch_from_curl(curl, mol, Contraction.PLANAR_PAPER) if xx or zz or xy else 0.0
    g_el = gamma_el_from_img(img_g, mol) if g_xx or g_zz else 0.0
    g_vac = gamma_vacuum(mol)
    return RateBreakdown(
        gamma_el=g_el, gamma_ch=g_ch, gamma_vac=g_vac, gamma_total=g_vac + g_el + g_ch,
        s_disc=degree_of_discrimination(g_ch, g_vac + g_el if nd_with_el else g_vac), method=method,
        assembly="vacuum + scattering (gamma_el is the scattering-only part)",
    )


def rates_mirror(geom: PlanarGeometry, mol: TransitionDipoles, limit: Limit) -> RateBreakdown:
    """Decay-rate breakdown in front of a perfect chiral mirror. Entries of
    curl Im G and Im G in each limit (``_tensors``; s = 2 w z/c, sgn = +-1
    the handedness, unnamed entries zero):

    * RETARDED: curl xx = -sgn sin s/(16 pi z^2), Im G xx = sin s/(16 pi z).
      The electric rate mu0 w^2 |d_par|^2 sin s/(8 pi hbar z) is consistent
      in units with the master formula.
    * NONRETARDED: curl xx = -sgn/(32 pi k0 z^3), zz = 2 xx.
    * NUMERIC: the exact curl xx of ``_mirror_totals``, zz = 2 xx: constant
      reflections make the wavevector integral elementary, and the vanishing
      diagonal ones leave Im G = 0.

    The retarded form lacks the same-order z-dipole channel (curl zz) of the
    exact curl, so the two agree for in-plane dipoles; the nonretarded
    diag(1,1,2) is complete. s_disc is gamma_ch / gamma_vac; for an
    isotropic molecule in the retarded limit, +-(c R/(2 w^2 z^2 |d|^2)) sin s.
    """
    if geom.handedness is None:
        raise PhysicsError("mirror geometry requires a handedness")
    _warn_limit(limit, mol.omega_ik / CONSTANTS.c * geom.z_m)
    return _planar_rates(geom, mol, Method.CLOSED_FORM, False, _mirror_entries, limit)


def _mirror_entries(geom: PlanarGeometry, w: float, limit: Limit) -> tuple:
    """The mirror's five entries (``_tensors``) in ``limit``; see ``rates_mirror``."""
    z, sgn = geom.z_m, geom.handedness.sign
    if limit is Limit.NUMERIC:
        k0 = w / CONSTANTS.c
        k0z = k0 * z
        return _assemble(_mirror_totals(geom, k0z), k0, k0z)
    # successive divisions by z: a power of a small z_m would be subnormal
    if limit is Limit.RETARDED:
        g_xx = math.sin(_round_trip(w, z)) / (16.0 * math.pi * z)
        return -sgn * g_xx / z, 0.0, 0.0, g_xx, 0.0
    xx = -sgn * CONSTANTS.c / (32.0 * math.pi * w * z) / z / z
    return xx, 2.0 * xx, 0.0, 0.0, 0.0


def rates_halfspace(
    geom: PlanarGeometry,
    mol: TransitionDipoles,
    limit: Limit,
    spec: QuadratureSpec = QuadratureSpec(),
) -> RateBreakdown:
    """Decay-rate breakdown in front of a realistic chiral half-space.
    Entries of curl Im G and Im G in each limit (``_tensors``; s = 2 k0 z,
    unnamed entries zero):

    * RETARDED, from the normal-incidence set ``fresnel_retarded`` (complex
      parameters allowed) and the achiral r_s = (sqrt mu - sqrt eps)/(sqrt mu
      + sqrt eps): curl xx = -k0 [(cos s - 1) Re r_sp + sin s Im r_sp]/(8 pi z),
      x-y = k0 Re(e^{is} (r_ss + r_pp))/(16 pi z) and
      Im G xx = (cos s Im r_s + sin s Re r_s)/(8 pi z).
    * NONRETARDED, from the near-field set ``fresnel_nonretarded``, which
      requires a lossless medium: curl xx = -Im r_sp/(16 pi z^2), zz = 2 xx,
      x-y = -k0 Re(r_ss + r_pp)/(16 pi z); real reflections leave Im G = 0.
    * NUMERIC: the entries of ``scatter_numeric``, the arbiter between the
      limits; PoleError for a medium with gain whose reflections have a pole
      between its contours.

    Curl x-y gives anisotropic molecules a kappa-even term in
    Im[(d x m*) . e_z]. Two closed-form entries are not limits of the exact
    ones: the nonretarded curl xx grows as 1/z^2 where the exact lossless
    integrals stay bounded, and the retarded x-y is driven by r_ss + r_pp,
    which vanishes at normal incidence, where the exact channel carries
    r_ss - r_pp; the CLI's ``compare_numeric`` shows the comparison.

    s_disc is gamma_ch/(gamma_vac + gamma_el) in every limit (gamma_el = 0
    in the nonretarded one). For an isotropic molecule the nonretarded
    quotient is Re(-i c R r_sp)/(w^2 z^2 |d|^2), and the retarded one is
    about (R/(w z |d|^2)) [(cos s - 1) Re r_sp + sin s Im r_sp] where
    gamma_el is small against gamma_vac.
    """
    if geom.medium is None:
        raise PhysicsError("half-space geometry requires a medium")
    _warn_limit(limit, mol.omega_ik / CONSTANTS.c * geom.z_m)
    method = Method.QUADRATURE if limit is Limit.NUMERIC else Method.CLOSED_FORM
    return _planar_rates(geom, mol, method, True, _halfspace_entries, limit, spec)


def _halfspace_entries(geom: PlanarGeometry, w: float, limit: Limit, spec: QuadratureSpec) -> tuple:
    """The half-space's five entries (``_tensors``) in ``limit``; see ``rates_halfspace``."""
    med, z = geom.medium, geom.z_m
    k0 = w / CONSTANTS.c
    if limit is Limit.NUMERIC:
        k0z = k0 * z
        return _assemble(_path_totals(med, k0z, spec), k0, k0z)
    if limit is Limit.RETARDED:
        r_ss, r_pp, r_sp = fresnel_retarded(med)
        arg = _round_trip(w, z)
        cos, sin = math.cos(arg), math.sin(arg)
        diag = r_ss + r_pp
        r_s = (cmath.sqrt(med.mu) - cmath.sqrt(med.eps)) / (cmath.sqrt(med.mu) + cmath.sqrt(med.eps))
        xx = -k0 * ((cos - 1.0) * r_sp.real + sin * r_sp.imag) / (8.0 * math.pi * z)
        xy = k0 * (cos * diag.real - sin * diag.imag) / (16.0 * math.pi * z)
        return xx, 0.0, xy, (cos * r_s.imag + sin * r_s.real) / (8.0 * math.pi * z), 0.0
    if not med.lossless:
        raise LosslessRequiredError("nonretarded closed forms require a lossless medium")
    r_ss, r_pp, r_sp = fresnel_nonretarded(med)
    xx = -r_sp.imag / (16.0 * math.pi * z) / z  # never z^2, which a small z_m makes subnormal
    return xx, 2.0 * xx, -k0 * (r_ss + r_pp).real / (16.0 * math.pi * z), 0.0, 0.0
