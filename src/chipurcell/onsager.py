"""Local-field corrected decay rates: molecule in a small vacuum sphere
(real-cavity model) carved out of the chiral medium.

Closed-form cavity coefficients and correction factors are small-radius
asymptotics; ``curl_img_lfc``, ``gamma_ch_lfc`` and ``gamma_el_lfc`` guard
k0*a on entry, whatever the host. A rate judges it, and evaluates its closed
form, at the molecule's omega_ik, so the host enters only through eps, mu and
kappa; ``curl_img_lfc`` and ``onsager_coefficients`` read the host's omega. Two
inequivalent normalizations of the chiral correction factor f0 circulate
(the module-level rational function of (eps, mu) and a mode-resolved form
built from the circular wave numbers); see ``f0_main``. They do not agree
(vacuum limits 4/9 vs 10/9), so both are implemented and the choice is an
explicit argument, defaulting to the cavity-coefficient derivation
(``f0_source="appendix"``). Whether the lossless or the absorbing form
applies is the host's to decide: ``gamma_ch_lfc``, ``gamma_el_lfc`` and
``rates_lfc`` read ``host.lossless``, and ``gamma_ch_lfc`` checks the
``f0_source`` name whichever form the host selects. The degree of
discrimination is the breakdown's ``s_disc``, gamma_ch_lfc / gamma_el_lfc.
Nothing here warns: a host lossy only in mu or kappa, where the absorbing
electric form vanishes, ends in the PhysicsError of ``gamma_el_lfc``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bulk import gamma_ch_bulk, gamma_el_bulk
from .constants import CONSTANTS
from .errors import PhysicsError, PoleError, RadiusTooLargeError
from .media import MediumResponse
from .molecules import TransitionDipoles, rotatory_strength
from .rates import (
    Method,
    RateBreakdown,
    _ends_typed,
    degree_of_discrimination,
    gamma_vacuum,
)

SMALL_RADIUS_THRESHOLD = 0.1  # max k0*a for the small-cavity asymptotics


@dataclass(frozen=True)
class CavityConfig:
    """Vacuum cavity of radius ``radius_a`` inside host medium ``host``; k0*a
    is judged at the k0 of the form that asks (``check_small_radius``)."""

    radius_a: float
    host: MediumResponse

    def __post_init__(self):
        if not (self.radius_a > 0):
            raise PhysicsError(f"radius_a must be positive, got {self.radius_a}")

    def check_small_radius(self, k0: float):
        if k0 * self.radius_a >= SMALL_RADIUS_THRESHOLD:
            raise RadiusTooLargeError(f"small-cavity asymptotics require k0*a < {SMALL_RADIUS_THRESHOLD}, "
                                      f"got {k0 * self.radius_a:.3g}")


@dataclass(frozen=True)
class OnsagerCoefficients:
    """Surviving cavity scattering coefficients in the a -> 0 limit."""

    a0v: complex
    a0w: complex
    b0v: complex
    b0w: complex


class FFactors(NamedTuple):
    f0: complex
    f1: complex
    f3: complex


def _denoms(med: MediumResponse):
    nr2 = med.eps * med.mu
    d1 = 2.0 * med.mu + 1.0
    d2 = med.mu + 2.0 * nr2
    if d1 == 0 or d2 == 0:
        raise PoleError("cavity factors have a pole at (2 mu + 1)(mu + 2 n_r^2) = (2 mu + 1) mu (2 eps + 1) = 0")
    return d1, d2


def _f3(mu: complex, d1: complex, d2: complex) -> complex:
    """The O(1/a^3) cavity factor 3 mu/(2 d1 d2), from the denominators of
    ``_denoms``."""
    return 3.0 * mu / (2.0 * d1 * d2)


def _f0_appendix(mu: complex, n_r: complex, d1: complex, d2: complex) -> complex:
    """The factor f0 of ``f_factors``, from the denominators of ``_denoms``."""
    return 3.0 * mu * ((4.0 * mu + 3.0) * n_r**5 + mu * (3.0 * mu + 2.0) * n_r**3) / (d1**2 * d2**2)


def f_factors(med: MediumResponse) -> FFactors:
    """Rational cavity factors (f0, f1, f3) of (eps, mu).

    f0 scales the O(1) chiral term, f1 the O(1/a) term and f3 the O(1/a^3)
    term of the corrected curl; f3 satisfies
    3 mu/(2(2 mu + 1)(mu + 2 n_r^2)) = 3/(2(2 mu + 1)(2 eps + 1)) identically
    since mu + 2 n_r^2 = mu (2 eps + 1).
    """
    mu = med.mu
    n_r = med.n_r
    d1, d2 = _denoms(med)
    f1 = (
        3.0 * mu / (10.0 * d1**2 * d2**2)
        * (mu * (3.0 * mu + 1.0) + 20.0 * (mu + 1.0) * n_r**4
           + (20.0 * mu**2 + 23.0 * mu + 3.0) * n_r**2)
    )
    return FFactors(_f0_appendix(mu, n_r, d1, d2), f1, _f3(mu, d1, d2))


def f0_main(med: MediumResponse) -> complex:
    """Mode-resolved chiral correction factor.

    [(F_em + kappa F_k) k-^3 - (F_em - kappa F_k) k+^3] / (k-^3 - k+^3),
    with F_em = (3 eps/(2 eps + 1))(3/(2 mu + 1)) and
    F_k = 9 sqrt(eps/mu)(4 n_r^2 - 1)/((2 eps + 1)^2 (2 mu + 1)^2). By the
    cube identity k-^3 - k+^3 = 2 kappa k0^3 (3 n_r^2 + kappa^2) (and
    k-^3 + k+^3 = 2 n_r k0^3 (n_r^2 + 3 kappa^2)) this ratio is the form
    evaluated, F_em + F_k n_r (n_r^2 + 3 kappa^2)/(3 n_r^2 + kappa^2): exact
    at kappa = 0 (F_em + F_k n_r/3), and free of the difference of cubes,
    which loses digits like 1e-16/kappa.
    """
    eps, mu = med.eps, med.mu
    n_r, kap = med.n_r, med.kappa
    n2, kap2 = n_r**2, kap**2
    d1, _ = _denoms(med)  # its mu + 2 n_r^2 = mu (2 eps + 1) holds the poles at mu = 0 and 2 eps + 1 = 0
    if (3.0 * n2 + kap2) == 0:
        raise PoleError("f0_main has a pole at 3 n_r^2 + kappa^2 = 0")
    f_em = (3.0 * eps / (2.0 * eps + 1.0)) * (3.0 / d1)
    f_k = 9.0 * np.sqrt(eps / mu) * (4.0 * n2 - 1.0) / ((2.0 * eps + 1.0) ** 2 * d1**2)
    return f_em + f_k * n_r * (n2 + 3.0 * kap2) / (3.0 * n2 + kap2)


@_ends_typed
def onsager_coefficients(cav: CavityConfig) -> OnsagerCoefficients:
    """Closed forms of the surviving cavity coefficients (small-radius limit).

    b0v/b0w follow from a0w/a0v by flipping the sign of kappa. a0w does not
    depend on kappa, so b0v = a0w; a0v is linear in it, with the slope
    6 (k0^2 f0 - i (f3/(k0 a^3) + k0 f1/a)) of the cavity factors.
    """
    med = cav.host
    mu = med.mu
    n = med.n_r
    k0 = med.k0
    a = cav.radius_a
    d1, d2 = _denoms(med)
    f = f_factors(med)
    v_a3 = 3j * (mu * (mu + 2.0) + (1.0 - 4.0 * mu) * n**2) / (2.0 * a**3 * k0 * d1 * d2)
    v_a0 = (
        k0**2
        * (-2.0 * mu**2 * d1**2 + 36.0 * mu * n**7 + 9.0 * mu * (4.0 * mu**2 + 8.0 * mu + 1.0) * n**5
           - 8.0 * d1**2 * n**4 + 9.0 * mu**3 * n**3 - 8.0 * mu * n**2 * d1**2)
        / (2.0 * d1**2 * d2**2)
    )
    v_a1 = (
        -9j * k0
        * (-mu**2 * (5.0 * mu**2 + 7.0 * mu + 2.0) + 20.0 * mu * n**6
           + (20.0 * mu**3 + 32.0 * mu**2 - 11.0 * mu - 5.0) * n**4
           - mu * (11.0 * mu**2 + 24.0 * mu + 7.0) * n**2)
        / (10.0 * a * d1**2 * d2**2)
    )
    v_even = v_a3 + v_a0 + v_a1
    v_odd = 6.0 * med.kappa * (k0**2 * f.f0 - 1j * (f.f3 / (k0 * a**3) + k0 * f.f1 / a))
    diff = n**2 - mu**2
    w_a3 = 9j * diff / (2.0 * a**3 * k0 * d1 * d2)
    w_a1 = (
        -9j * k0 * diff
        * (-mu * (3.0 * mu + 1.0) + 20.0 * mu * n**4 - (13.0 * mu + 3.0) * n**2)
        / (10.0 * a * d1**2 * d2**2)
    )
    w_a0 = 9.0 * k0**2 * mu * (4.0 * n**2 - 1.0) * n**3 * diff / (2.0 * d1**2 * d2**2)
    a0w = w_a3 + w_a1 + w_a0
    return OnsagerCoefficients(a0v=v_even + v_odd, a0w=a0w, b0v=a0w, b0w=v_even - v_odd)


@_ends_typed
def curl_img_lfc(cav: CavityConfig) -> np.ndarray:
    """Cavity-corrected curl of Im G at the molecule, small-radius asymptotics.

    Im{ kappa c f3/(pi a^3 w) + kappa w f1/(pi a c) + i kappa w^2 f0/(pi c^2) } I.
    For real parameters only the f0 term survives; for absorbing media the
    1/a^3 term dominates.
    """
    med = cav.host
    cav.check_small_radius(med.k0)
    f = f_factors(med)
    kap = med.kappa
    w = med.omega
    a = cav.radius_a
    c = CONSTANTS.c
    scalar = np.imag(
        kap * c * f.f3 / (np.pi * a**3 * w)
        + kap * w * f.f1 / (np.pi * a * c)
        + 1j * kap * w**2 * f.f0 / (np.pi * c**2)
    )
    return scalar * np.eye(3)


@_ends_typed
def gamma_ch_lfc(cav: CavityConfig, mol: TransitionDipoles, f0_source: str = "appendix") -> float:
    """Cavity-corrected chiral rate, in the form the host selects.

    Lossless host: f0 * gamma_ch_bulk, with ``f0_source`` selecting between
    the rational-factor normalization ("appendix", default) and the
    mode-resolved one ("main"); see module docstring. Absorbing host: the
    leading 1/a^3 order, -4 R Im(kappa f3) / (pi hbar eps0 c a^3), which is
    the negated BULK_LOCKED contraction of the 1/a^3 term of
    ``curl_img_lfc`` and vanishes for fully real parameters (the 1/a^3 term
    is purely dispersive there). Either host raises RadiusTooLargeError
    outside the small-cavity range.
    """
    if f0_source not in ("appendix", "main"):
        raise ValueError(f"unknown f0_source {f0_source!r}")
    cav.check_small_radius(mol.omega_ik / CONSTANTS.c)
    med = cav.host
    if med.lossless:
        f0 = _f0_appendix(med.mu, med.n_r, *_denoms(med)) if f0_source == "appendix" else f0_main(med)
        return float(np.real(f0)) * gamma_ch_bulk(med, mol)
    c = CONSTANTS
    im_kf3 = (med.kappa * _f3(med.mu, *_denoms(med))).imag
    return -4.0 * rotatory_strength(mol) * im_kf3 / (np.pi * c.hbar * c.eps0 * c.c * cav.radius_a**3)


@_ends_typed
def gamma_el_lfc(cav: CavityConfig, mol: TransitionDipoles) -> float:
    """Cavity-corrected electric rate, in the form the host selects.

    Lossless host: (3 eps/(2 eps + 1))^2 * gamma_el_bulk. Absorbing host:
    the near-field 1/a^3 form
    |d|^2 3 Im(eps) / (pi hbar eps0 a^3 |2 eps + 1|^2). It vanishes at
    Im eps = 0, for a host lossy in mu or kappa only, where the form carries
    no leading order: that host raises PhysicsError.
    """
    cav.check_small_radius(mol.omega_ik / CONSTANTS.c)
    med = cav.host
    eps = med.eps
    if med.lossless:
        factor = abs(3.0 * eps / (2.0 * eps + 1.0)) ** 2
        return factor * gamma_el_bulk(med, mol)
    if eps.imag == 0:
        raise PhysicsError("the absorbing cavity's electric form vanishes at Im eps = 0: "
                           "a host lossy only in mu or kappa has no 1/a^3 electric rate")
    c = CONSTANTS
    return (
        mol.d_norm_sq / (np.pi * c.hbar * c.eps0 * cav.radius_a**3)
        * 3.0 * eps.imag / abs(2.0 * eps + 1.0) ** 2
    )


def rates_lfc(cav: CavityConfig, mol: TransitionDipoles, f0_source: str = "appendix") -> RateBreakdown:
    """Full cavity-corrected breakdown, in the forms the host selects."""
    g_ch = gamma_ch_lfc(cav, mol, f0_source)
    g_el = gamma_el_lfc(cav, mol)
    return RateBreakdown(
        gamma_el=g_el,
        gamma_ch=g_ch,
        gamma_vac=gamma_vacuum(mol),
        gamma_total=g_el + g_ch,
        s_disc=degree_of_discrimination(g_ch, g_el),
        method=Method.CLOSED_FORM,
        assembly="cavity-corrected electric + chiral (gamma_vac reported for reference)",
        details={"absorbing": not cav.host.lossless, "f0_source": f0_source},
    )

