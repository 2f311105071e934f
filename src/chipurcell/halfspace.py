"""Planar-interface physics: reflection coefficients for a vacuum /
chiral-medium interface, closed-form decay rates in the retarded and
nonretarded limits (perfect chiral mirror and realistic half-space), and the
numerical-quadrature pathway valid at any distance.

Geometry: vacuum fills z > 0, the reflecting medium z < 0, the molecule
sits at height z_m > 0. A perfect chiral mirror rotates reflected
polarization by pi/2 (cross coefficients +-1, diagonal ones zero); a
realistic chiral half-space has all four coefficients, with the cross ones
odd in the medium's kappa and obeying r_ps = -r_sp (reciprocity).

Sign conventions: the closed-form rates in this module were assembled from
their curl matrices with the ``PLANAR_PAPER`` ordering of the chiral
contraction, and the numeric pathway uses the same ordering so quadrature
and closed forms are mutually consistent (see chipurcell.rates). Every
reflection set is the triple (r_ss, r_pp, r_sp), r_ps = -r_sp; the cross
coefficient of ``planar_reflections`` is oriented so that its large
k-parallel limit coincides with ``fresnel_nonretarded``.

The numeric pathway (``scatter_numeric``) evaluates the exact wavevector
integrals of the scattering Green's tensor of a half-space and is the
physical arbiter between the two closed-form limits. Their contour in the
vacuum perpendicular wave number (the evanescent axis, then the traveling
segment [0, k0]) is deformed onto the steepest-descent path
k_perp = k0 + i t, on which exp(2i k_perp z) decays without oscillating, so
one adaptive integral of a few panels covers any distance; branch cuts of
the reflections inside the swept strip are integrated around (deformed
Sommerfeld contours: Paulus, Gay-Balmaz & Martin, PRE 62, 5797 (2000)), and
a reflection pole inside it, which only a medium with gain has, raises
PoleError. The integrand is dimensionless:
a function of x = k_perp/k0 = 1 + i t/k0 with four channels (curl G xx
and x-y, G xx and zz; curl G zz is twice curl G xx). Each node carries
only the real decay exp(-2 t z) of exp(2i k_perp z), and one function
(``_assemble``) turns the four channel totals into tensor entries. The
reflections of a medium come from one cached per-medium plan (``_plan``),
in units of k0, which ``planar_reflections`` uses as well. The perfect
mirror's reflections are constant, so ``_mirror_curl`` assembles its
elementary totals the same way and runs no quadrature.

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
import operator
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import CONSTANTS
from .errors import LosslessRequiredError, PhysicsError, PoleError, QuadratureError
from .media import MediumResponse
from .molecules import TransitionDipoles, rotatory_strength
from .rates import (
    Contraction,
    Method,
    RateBreakdown,
    contract,
    degree_of_discrimination,
    gamma_ch_from_curl,
    gamma_el_from_img,
    gamma_vacuum,
)
from .sommerfeld import QuadratureResult, QuadratureSpec, integrate_evanescent


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

@dataclass(frozen=True, eq=False)
class _Plan:
    """The per-medium constants of the reflections, in units of k0: they
    depend on eps, mu and kappa only, and the reflections on them and on
    x = k_perp/k0. Mode arrays are read-only, modes first (0 is k_plus,
    1 is k_minus), with K = k/k0."""

    alpha: np.ndarray  # K^2 - 1
    c: np.ndarray  # sqrt(mu/eps) / K
    e: complex  # eps/mu
    cross: complex  # 2i sqrt(eps/mu), the prefactor of r_sp
    # (x_b, modes) of each vertical branch cut: x_b = sqrt(1 - K^2) of the
    # modes with Im K^2 < 0, whose root is cut vertically upward from x_b.
    # A mode with Im K^2 >= 0 keeps the Im >= 0 root, which is analytic over
    # the strip 0 <= Re x <= 1, Im x >= 0. A mode with Im K^2 < 0 (gain, or
    # a lossy |kappa| > Re n) has x_b in the first quadrant, where the
    # Im >= 0 root jumps along a curve running right from x_b. Its root is
    # cut vertically instead, which changes no value on the real segment or
    # the imaginary axis; when Re x_b < 1 the cut lies inside the strip and
    # the numeric pathway integrates around it.
    cuts: tuple

    @functools.cached_property
    def poles(self) -> tuple:
        """Reflection poles inside the strip (see ``_strip_poles``), found
        on first use: only the numeric pathway needs them."""
        return _strip_poles(self)


@functools.lru_cache(maxsize=128)
def _plan(eps: complex, mu: complex, kappa: complex) -> _Plan:
    """The ``_Plan`` of a medium; built once per (eps, mu, kappa). Raises
    ``PhysicsError`` for eps = 0 or mu = 0, where the impedance sqrt(mu/eps)
    is 0 or infinite, and for a circular wave number K whose square vanishes
    against k0^2 (kappa = +-n_r), which alpha = K^2 - 1 cannot hold."""
    if eps == 0 or mu == 0:
        raise PhysicsError(f"planar reflections need nonzero eps and mu, got eps = {eps!r}, mu = {mu!r}")
    unit = MediumResponse(eps, mu, kappa, CONSTANTS.c)  # k0 = 1
    k_plus, k_minus = unit.k_plus, unit.k_minus
    cuts = {}
    for mode, k in enumerate((k_plus, k_minus)):
        if (k * k).imag < 0:
            cuts.setdefault(cmath.sqrt(1.0 - k * k), []).append(mode)
    k = np.array([k_plus, k_minus])
    alpha = k * k - 1.0
    if (alpha == -1.0).any():
        raise PhysicsError(
            f"a circular wave number vanishes (kappa = +-n_r): k+/k0 = {k_plus!r}, k-/k0 = {k_minus!r}"
        )
    c = np.sqrt(mu / eps) / k
    alpha.flags.writeable = c.flags.writeable = False
    return _Plan(alpha, c, eps / mu, 2j * np.sqrt(eps / mu),
                 tuple((x_b, tuple(modes)) for x_b, modes in cuts.items()))


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
    +-(sqrt(mu) - sqrt(eps))/(sqrt(mu) + sqrt(eps)).
    """
    eps, mu = med.eps, med.mu
    n_r, kp, km = med.n_r, med.k_plus, med.k_minus
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
# panel seeds of the steepest-descent path, in units of k0: the reflections
# vary on the scale of k0 whatever the distance
_PATH_BREAKPOINTS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def _run_quadrature(res: QuadratureResult) -> np.ndarray:
    if res.converged:
        return res.value
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
    k_perp = k0 + i t, t in [0, inf), on which exp(2i k_perp z) decays like
    exp(-2 t z) without oscillating, so the panel count does not grow with
    z. The integrand is dimensionless: a function of x = k_perp/k0 =
    1 + i tau, tau = t/k0, integrated over tau. Each node carries only the
    real decay exp(-2 k0 z tau), and ``_assemble`` applies the rest of
    exp(2i k_perp z) to the totals. The reflections come from the medium's
    cached ``_Plan``; each vertical branch cut inside the strip the
    deformation sweeps is added as a hairpin, the difference of the
    channels on its two sides at x = x_b + i tau with the roots of every
    mode cut there negated, in the same integrand and with its constant
    phase exp(2i k0 z (x_b - 1)); a pole inside the strip (possible only
    with gain) raises PoleError. One adaptive integral evaluates the
    reflections once per refinement round, on the nodes of every panel the
    round evaluates.
    """
    med = geom.medium
    if med is None:
        raise PhysicsError("the planar numeric pathway requires a medium")
    k0 = omega / CONSTANTS.c
    k0z = k0 * geom.z_m
    plan = _plan(med.eps, med.mu, med.kappa)
    if plan.poles:
        raise PoleError(
            f"reflection pole at k_perp = {plan.poles[0]!r} k0 between the real-axis contour and "
            "the steepest-descent path (a medium with gain); the numeric pathway does not "
            "integrate around it"
        )
    # (x_b, the modes cut upward from it, the phase relative to the path)
    hairpins = [(x_b, list(modes), cmath.exp(2j * k0z * (x_b - 1.0)))
                for x_b, modes in plan.cuts if x_b.real < 1.0]

    def channels(out: np.ndarray, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        r_ss, r_pp, r_sp, r_diff = _reflections(plan, a)
        x2 = x * x
        par = 1.0 - x2  # k_par^2 / k0^2
        np.multiply(r_sp, par, out=out[0])  # curl xx
        np.multiply(x, r_diff, out=out[1])  # curl x-y
        np.subtract(r_ss, x2 * r_pp, out=out[2])  # G xx over i
        np.multiply(par, r_pp, out=out[3])  # G zz over 2i
        if not np.isfinite(out).all():
            bad = x[~np.isfinite(out).all(axis=0)][0]
            raise PoleError(f"planar integrand not finite at k_perp = {k0 * bad!r}, k0 = {k0!r}")
        return out

    def integrand(tau: np.ndarray) -> np.ndarray:
        out = np.empty((4,) + tau.shape, dtype=complex)
        x = np.empty(tau.shape, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            x.real, x.imag = 1.0, tau  # x = 1 + i tau, with no complex arithmetic
            channels(out, x, _amplitudes(plan, x))
            for x_b, modes, phase in hairpins:
                x.real, x.imag = x_b.real, x_b.imag + tau  # x = x_b + i tau, reusing the buffer
                a = _amplitudes(plan, x)  # the left side of the cut
                side = channels(np.empty_like(out), x, a)
                a[modes] *= -1.0  # the right side: the cut modes' roots negated
                side -= channels(np.empty_like(out), x, a)
                side *= phase
                out += side
        out *= np.exp(-2.0 * k0z * tau)
        return out

    res = integrate_evanescent(integrand, k0z, spec, breakpoints=_PATH_BREAKPOINTS)
    xx, asym, g_xx, g_zz = _assemble(_run_quadrature(res), k0, k0z)
    curl = np.array([[xx, asym, 0.0], [-asym, xx, 0.0], [0.0, 0.0, 2.0 * xx]])
    return curl, np.diag([g_xx, g_xx, g_zz])


def _assemble(totals: np.ndarray, k0: float, k0z: float) -> tuple:
    """(curl Im G xx, x-y; Im G xx, zz), in 1/m^2 and 1/m, from the complex
    totals of the four ``_CHANNELS`` over tau on the path x = 1 + i tau,
    whose phase exp(2i k0 z) multiplies them once here."""
    xx, asym, g_xx, g_zz = (cmath.exp(2j * k0z) * totals).tolist()
    # the t = k0 tau Jacobian, and the prefactors -i k0/(8 pi) of curl G and
    # i/(8 pi) of G, whose channels are written over i and 2i
    pre = k0 / (8.0 * np.pi)
    return -pre * k0 * xx.real, -pre * k0 * asym.real, pre * g_xx.imag, 2.0 * pre * g_zz.imag


def _mirror_curl(geom: PlanarGeometry, omega: float) -> np.ndarray:
    """curl Im G of the perfect chiral mirror, a real 3x3 array: the
    integral of ``scatter_numeric`` in closed form.

    Its reflections are constant (r_ss = r_pp = 0, r_sp = +-1), so only the
    curl xx channel is nonzero, and on the path x = 1 + i tau it is
    +-int_0^inf (tau^2 - 2i tau) e^{-s tau} dtau = +-(2/s^3 - 2i/s^2) with
    s = 2 k0 z. That total is assembled as the quadrature totals are
    (``_assemble``), and the matrix is diag(xx, xx, 2 xx), with
    xx -> -+1/(32 pi k0 z^3) in the near field and -+sin(2 k0 z)/(16 pi z^2)
    in the far field.
    """
    k0 = omega / CONSTANTS.c
    k0z = k0 * geom.z_m
    s = 2.0 * k0z
    xx = _assemble(np.array([geom.handedness.sign * (2.0 / s**3 - 2j / s**2), 0j, 0j, 0j]), k0, k0z)[0]
    curl = np.zeros((3, 3))  # filled, which is faster than np.diag of a list
    curl[0, 0] = curl[1, 1] = xx
    curl[2, 2] = 2.0 * xx
    return curl


# ---------------------------------------------------------------------------
# Closed-form rates
# ---------------------------------------------------------------------------

# The dipole responses of the planar closed forms are contractions with
# constant weight matrices. Their traces, 3, 3, 0 and 2, make the orientation
# average of an isotropic molecule R = Im(d . m*), R, 0 and (2/3)|d|^2. They
# are complex so that the contraction with the complex dipoles casts nothing.
_PAR = np.diag([1.5, 1.5, 0.0]).astype(complex)          # (3/2) Im(d_par . m_par*)
_FULL_Z = np.diag([0.75, 0.75, 1.5]).astype(complex)     # (3/4) Im(d . m* + d_z m_z*)
_CROSS_Z = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)  # Im[(d x m*) . e_z]
_D_PAR = np.diag([1.0, 1.0, 0.0]).astype(complex)        # |d_par|^2


def _chiral(mol: TransitionDipoles, weight: np.ndarray) -> float:
    return float(np.imag(contract(mol, mol.d, weight, mol.m)))


def _d_par_sq(mol: TransitionDipoles) -> float:
    return float(np.real(contract(mol, mol.d, _D_PAR, mol.d)))


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


def _planar_breakdown(g_el: float, g_ch: float, g_vac: float, g_nd: float, method: Method) -> RateBreakdown:
    """Vacuum plus scattering rates; s_disc = g_ch / g_nd, the non-discriminating rate."""
    return RateBreakdown(
        gamma_el=g_el, gamma_ch=g_ch, gamma_vac=g_vac, gamma_total=g_vac + g_el + g_ch,
        s_disc=degree_of_discrimination(g_ch, g_nd), method=method,
        assembly="vacuum + scattering (gamma_el is the scattering-only part)",
    )


def rates_mirror(geom: PlanarGeometry, mol: TransitionDipoles, limit: Limit) -> RateBreakdown:
    """Decay-rate breakdown in front of a perfect chiral mirror.

    The scattering contribution is purely chiral in the nonretarded limit
    (the idealized dielectric-mirror electric part vanishes there); in the
    retarded limit the electric scattering part is
    mu0 w^2 |d_par|^2 sin(2wz/c)/(8 pi hbar z), consistent in units with the
    electric master formula (``gamma_el_mirror_retarded_variant`` keeps the
    published form without the w^2).

    The mirror's reflections are constant, so its exact wavevector integral
    is elementary: ``Limit.NUMERIC`` contracts that closed-form curl
    (``_mirror_curl``) and runs no quadrature. The retarded closed form keeps
    only the parallel-dipole chiral channel; the exact curl also carries the
    same-order z-dipole channel, so the two agree for molecules with
    in-plane dipoles and for the nonretarded limit, where the closed
    diag(1,1,2) structure is complete.

    s_disc is gamma_ch / gamma_vac; for an isotropic molecule in the
    retarded limit it is +-(c R/(2 w^2 z^2 |d|^2)) sin(2wz/c).
    """
    if geom.handedness is None:
        raise PhysicsError("mirror geometry requires a handedness")
    z = geom.z_m
    w = mol.omega_ik
    c = CONSTANTS
    sgn = geom.handedness.sign
    g_vac = gamma_vacuum(mol)
    _warn_limit(limit, w / c.c * z)

    if limit is Limit.RETARDED:
        osc = np.sin(2.0 * w * z / c.c)
        g_ch = sgn * c.mu0 * w * _chiral(mol, _PAR) * osc / (6.0 * np.pi * c.hbar * z**2)
        g_el = c.mu0 * w**2 * _d_par_sq(mol) * osc / (8.0 * np.pi * c.hbar * z)
    elif limit is Limit.NONRETARDED:
        g_ch = sgn * c.mu0 * c.c * _chiral(mol, _FULL_Z) / (6.0 * np.pi * c.hbar * z**3)
        g_el = 0.0
    else:
        g_ch = gamma_ch_from_curl(_mirror_curl(geom, w), mol, Contraction.PLANAR_PAPER)
        g_el = 0.0  # diagonal reflections vanish for the perfect chiral mirror
    return _planar_breakdown(g_el, g_ch, g_vac, g_vac, Method.CLOSED_FORM)


def rates_halfspace(
    geom: PlanarGeometry,
    mol: TransitionDipoles,
    limit: Limit,
    spec: QuadratureSpec = QuadratureSpec(),
) -> RateBreakdown:
    """Decay-rate breakdown in front of a realistic chiral half-space.

    Closed forms: the retarded limit uses the normal-incidence reflection
    set (complex parameters allowed; the cross channel requires an absorbing
    medium); the nonretarded limit uses the k-independent near-field set and
    requires a lossless medium. Anisotropic molecules pick up, besides the
    discriminating cross-reflection term, a kappa-even term driven by the
    diagonal reflections and Im[(d x m*) . e_z].

    The numeric method integrates the full k-dependent reflection set and is
    the arbiter between the limits; it raises PoleError for a medium with
    gain whose reflections have a pole between its contours. Note the nonretarded closed form is an
    extrapolation whose 1/z^2 growth is not reproduced by the exact
    integrals for lossless media (whose near-field chiral response stays
    bounded); the CLI's ``compare_numeric`` option exposes the honest
    comparison.

    s_disc is gamma_ch/(gamma_vac + gamma_el) in every limit; in the
    nonretarded one gamma_el is exactly zero (lossless medium), so it is
    gamma_ch/gamma_vac there. For an isotropic molecule the nonretarded
    quotient is Re(-i c R r_sp)/(w^2 z^2 |d|^2), and the retarded one is
    approximated by (R/(w z |d|^2)) [(cos(2wz/c) - 1) Re r_sp +
    sin(2wz/c) Im r_sp] where gamma_el is small against gamma_vac.
    """
    med = geom.medium
    if med is None:
        raise PhysicsError("half-space geometry requires a medium")
    z = geom.z_m
    w = mol.omega_ik
    c = CONSTANTS
    g_vac = gamma_vacuum(mol)
    method = Method.CLOSED_FORM
    _warn_limit(limit, w / c.c * z)

    if limit is Limit.RETARDED:
        r_ss, r_pp, r_sp = fresnel_retarded(med)
        arg = 2.0 * w * z / c.c
        osc_sp = (np.cos(arg) - 1.0) * r_sp.real + np.sin(arg) * r_sp.imag
        diag = r_ss + r_pp
        osc_diag = np.cos(arg) * diag.real - np.sin(arg) * diag.imag
        g_ch = (c.mu0 * w**2 * _chiral(mol, _PAR) / (3.0 * np.pi * c.c * c.hbar * z) * osc_sp
                + c.mu0 * w**2 * _chiral(mol, _CROSS_Z) / (4.0 * np.pi * c.c * c.hbar * z) * osc_diag)
        r_s = (np.sqrt(med.mu) - np.sqrt(med.eps)) / (np.sqrt(med.mu) + np.sqrt(med.eps))
        g_el = (
            c.mu0 * w**2 * _d_par_sq(mol) / (4.0 * np.pi * c.hbar * z)
            * (np.cos(arg) * r_s.imag + np.sin(arg) * r_s.real)
        )
    elif limit is Limit.NONRETARDED:
        if not med.lossless:
            raise LosslessRequiredError("nonretarded closed forms require a lossless medium")
        r_ss, r_pp, r_sp = fresnel_nonretarded(med)
        g_ch = float(np.real(
            -1j * w * _chiral(mol, _FULL_Z) * r_sp / (3.0 * np.pi * c.hbar * c.eps0 * c.c**2 * z**2)
            - c.mu0 * w**2 * _chiral(mol, _CROSS_Z) * (r_pp + r_ss) / (4.0 * np.pi * c.c * c.hbar * z)
        ))
        g_el = 0.0  # the near-field reflections of a lossless medium are real: Im G vanishes
    else:
        curl, img_g = scatter_numeric(geom, w, spec)
        g_ch = gamma_ch_from_curl(curl, mol, Contraction.PLANAR_PAPER)
        g_el = gamma_el_from_img(img_g, mol)
        method = Method.QUADRATURE
    return _planar_breakdown(g_el, g_ch, g_vac, g_vac + g_el, method)


# ---------------------------------------------------------------------------
# Alternative published normalizations, retained for cross-checking. Each is
# pinned by a test to its own formula; their relation to the rate quotients
# above is documented where they differ.
# ---------------------------------------------------------------------------

def gamma_el_mirror_retarded_variant(mol: TransitionDipoles, z_m: float) -> float:
    """Far-field mirror electric rate as printed, mu0 |d_par|^2 sin(2wz/c)/(8 pi hbar z),
    in anomalous units: rates_mirror's retarded electric rate is this times w^2."""
    c = CONSTANTS
    osc = np.sin(2.0 * mol.omega_ik * z_m / c.c)
    return c.mu0 * _d_par_sq(mol) * osc / (8.0 * np.pi * c.hbar * z_m)


def gamma_ch_mirror_nonretarded_variant(
    mol: TransitionDipoles, z_m: float, handedness: Handedness
) -> float:
    """Compact near-field mirror rate +-mu0 c R/(8 pi hbar z^3).

    Differs from rates_mirror's isotropic value by the orientation-average
    factor 4/3 (which the compact form absorbs incorrectly); the quadrature
    pathway confirms the 4/3-consistent value.
    """
    c = CONSTANTS
    return handedness.sign * c.mu0 * c.c * rotatory_strength(mol) / (8.0 * np.pi * c.hbar * z_m**3)


def s_mirror_nonretarded_variant(mol: TransitionDipoles, z_m: float, handedness: Handedness) -> float:
    """Compact near-field mirror discrimination +-3 c^2 R/(w^3 z^3 |d|^2).

    Six times the exact quotient gamma_ch/gamma_vacuum of this package's
    closed forms (eight times that of the compact rate variant).
    """
    c = CONSTANTS
    return (
        handedness.sign * 3.0 * c.c**2 * rotatory_strength(mol)
        / (mol.omega_ik**3 * z_m**3 * mol.d_norm_sq)
    )


def s_halfspace_nonretarded_variant(med: MediumResponse, mol: TransitionDipoles, z_m: float) -> float:
    """Near-field half-space discrimination in the alternative sign convention,
    Re(+i c R r_sp)/(w^2 z^2 |d|^2); the exact quotient has the opposite sign."""
    r_sp = fresnel_nonretarded(med)[2]
    return float(np.real(
        1j * CONSTANTS.c * rotatory_strength(mol) * r_sp
        / (mol.omega_ik**2 * z_m**2 * mol.d_norm_sq)
    ))
