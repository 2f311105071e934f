"""Local-field corrected decay rates: molecule in a small vacuum sphere
(real-cavity model) carved out of the chiral medium.

Closed-form cavity coefficients and correction factors are small-radius
asymptotics; operations guard k0*a against the validity threshold. Two
inequivalent normalizations of the chiral correction factor f0 circulate
(the module-level rational function of (eps, mu) and a mode-resolved form
built from the circular wave numbers); see ``f0_main``. They do not agree
(vacuum limits 4/9 vs 10/9), so both are implemented and the choice is an
explicit argument, defaulting to the cavity-coefficient derivation
(``f0_source="appendix"``). Whether the lossless or the absorbing form
applies is the host's to decide: ``rates_lfc``, ``gamma_el_lfc`` and
``s_lfc`` read ``host.lossless``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bulk import gamma_ch_bulk, gamma_el_bulk, s_bulk, wave_numbers
from .constants import CONSTANTS
from .errors import LosslessRequiredError, PoleError, RadiusTooLargeError, ZeroDipoleError
from .media import MediumResponse
from .molecules import TransitionDipoles, rotatory_strength
from .rates import CurlGreens, CurlKind, Method, RateBreakdown, gamma_vacuum

SMALL_RADIUS_THRESHOLD = 0.1  # max k0*a for the small-cavity asymptotics


class DegenerateKappaWarning(UserWarning):
    """Raised when f0_main falls back to its kappa -> 0 limit."""


@dataclass(frozen=True)
class CavityConfig:
    """Vacuum cavity of radius ``radius_a`` inside host medium ``host``."""

    radius_a: float
    host: MediumResponse

    def __post_init__(self):
        if not (self.radius_a > 0):
            raise ValueError("radius_a must be positive")

    @property
    def k0a(self) -> float:
        return self.host.k0 * self.radius_a

    def check_small_radius(self):
        if self.k0a >= SMALL_RADIUS_THRESHOLD:
            raise RadiusTooLargeError(
                f"small-cavity asymptotics require k0*a < {SMALL_RADIUS_THRESHOLD}, got {self.k0a:.3g}"
            )


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
    nr2 = complex(med.eps) * complex(med.mu)
    d1 = 2.0 * complex(med.mu) + 1.0
    d2 = complex(med.mu) + 2.0 * nr2
    if d1 == 0 or d2 == 0:
        raise PoleError("cavity factors have a pole at (2 mu + 1)(mu + 2 n_r^2) = 0")
    return d1, d2


def f_factors(med: MediumResponse) -> FFactors:
    """Rational cavity factors (f0, f1, f3) of (eps, mu).

    f0 scales the O(1) chiral term, f1 the O(1/a) term and f3 the O(1/a^3)
    term of the corrected curl; f3 satisfies
    3 mu/(2(2 mu + 1)(mu + 2 n_r^2)) = 3/(2(2 mu + 1)(2 eps + 1)) identically
    since mu + 2 n_r^2 = mu (2 eps + 1).
    """
    mu = complex(med.mu)
    n_r = med.n_r
    d1, d2 = _denoms(med)
    f0 = 3.0 * mu * ((4.0 * mu + 3.0) * n_r**5 + mu * (3.0 * mu + 2.0) * n_r**3) / (d1**2 * d2**2)
    f1 = (
        3.0 * mu / (10.0 * d1**2 * d2**2)
        * (mu * (3.0 * mu + 1.0) + 20.0 * (mu + 1.0) * n_r**4
           + (20.0 * mu**2 + 23.0 * mu + 3.0) * n_r**2)
    )
    f3 = 3.0 * mu / (2.0 * d1 * d2)
    return FFactors(f0, f1, f3)


def f0_main(med: MediumResponse) -> complex:
    """Mode-resolved chiral correction factor.

    [(F_em + kappa F_k) k-^3 - (F_em - kappa F_k) k+^3] / (k-^3 - k+^3),
    with F_em = (3 eps/(2 eps + 1))(3/(2 mu + 1)) and
    F_k = 9 sqrt(eps/mu)(4 n_r^2 - 1)/((2 eps + 1)^2 (2 mu + 1)^2).
    Degenerate at kappa = 0; |kappa| < 1e-12 returns the analytic limit
    F_em + F_k n_r / 3 and emits DegenerateKappaWarning.
    """
    eps, mu = complex(med.eps), complex(med.mu)
    n_r = med.n_r
    if (2.0 * eps + 1.0) == 0 or (2.0 * mu + 1.0) == 0:
        raise PoleError("f0_main has a pole at (2 eps + 1)(2 mu + 1) = 0")
    f_em = (3.0 * eps / (2.0 * eps + 1.0)) * (3.0 / (2.0 * mu + 1.0))
    f_k = 9.0 * np.sqrt(eps / mu) * (4.0 * n_r**2 - 1.0) / ((2.0 * eps + 1.0) ** 2 * (2.0 * mu + 1.0) ** 2)
    kap = complex(med.kappa)
    if abs(kap) < 1e-12:
        warnings.warn(
            "kappa ~ 0: mode-resolved f0 is degenerate, returning its limit",
            DegenerateKappaWarning,
            stacklevel=2,
        )
        return f_em + f_k * n_r / 3.0
    wn = wave_numbers(med)
    km3, kp3 = wn.k_minus**3, wn.k_plus**3
    return ((f_em + kap * f_k) * km3 - (f_em - kap * f_k) * kp3) / (km3 - kp3)


def onsager_coefficients(cav: CavityConfig) -> OnsagerCoefficients:
    """Closed forms of the surviving cavity coefficients (small-radius limit).

    b0v/b0w follow from a0w/a0v by flipping the sign of kappa.
    """
    med = cav.host

    def a0v(kappa: complex) -> complex:
        mu = complex(med.mu)
        n = med.n_r
        k0 = med.k0
        a = cav.radius_a
        d1, d2 = _denoms(med)
        t_a3 = 3j * (mu * (mu + 2.0) + (1.0 - 4.0 * mu) * n**2) / (2.0 * a**3 * k0 * d1 * d2)
        t_a0 = (
            k0**2
            * (-2.0 * mu**2 * d1**2 + 36.0 * mu * n**7 + 9.0 * mu * (4.0 * mu**2 + 8.0 * mu + 1.0) * n**5
               - 8.0 * d1**2 * n**4 + 9.0 * mu**3 * n**3 - 8.0 * mu * n**2 * d1**2)
            / (2.0 * d1**2 * d2**2)
        )
        t_a1 = (
            -9j * k0
            * (-mu**2 * (5.0 * mu**2 + 7.0 * mu + 2.0) + 20.0 * mu * n**6
               + (20.0 * mu**3 + 32.0 * mu**2 - 11.0 * mu - 5.0) * n**4
               - mu * (11.0 * mu**2 + 24.0 * mu + 7.0) * n**2)
            / (10.0 * a * d1**2 * d2**2)
        )
        t_kap = kappa * (
            18.0 * k0**2 * mu * ((4.0 * mu + 3.0) * n**5 + mu * (3.0 * mu + 2.0) * n**3) / (d1**2 * d2**2)
            - 9j * mu / (a**3 * k0 * d1 * d2)
            - 9j * k0 * mu
            * (mu * (3.0 * mu + 1.0) + 20.0 * (mu + 1.0) * n**4 + (20.0 * mu**2 + 23.0 * mu + 3.0) * n**2)
            / (5.0 * a * d1**2 * d2**2)
        )
        return t_a3 + t_a0 + t_a1 + t_kap

    def a0w(kappa: complex) -> complex:
        mu = complex(med.mu)
        n = med.n_r
        k0 = med.k0
        a = cav.radius_a
        d1, d2 = _denoms(med)
        diff = n**2 - mu**2
        t_a3 = 9j * diff / (2.0 * a**3 * k0 * d1 * d2)
        t_a1 = (
            -9j * k0 * diff
            * (-mu * (3.0 * mu + 1.0) + 20.0 * mu * n**4 - (13.0 * mu + 3.0) * n**2)
            / (10.0 * a * d1**2 * d2**2)
        )
        t_a0 = 9.0 * k0**2 * mu * (4.0 * n**2 - 1.0) * n**3 * diff / (2.0 * d1**2 * d2**2)
        return t_a3 + t_a1 + t_a0

    kap = complex(med.kappa)
    return OnsagerCoefficients(
        a0v=a0v(kap),
        a0w=a0w(kap),
        b0v=a0w(-kap),
        b0w=a0v(-kap),
    )


def curl_img_lfc(cav: CavityConfig) -> CurlGreens:
    """Cavity-corrected curl of Im G at the molecule, small-radius asymptotics.

    Im{ kappa c f3/(pi a^3 w) + kappa w f1/(pi a c) + i kappa w^2 f0/(pi c^2) } I.
    For real parameters only the f0 term survives; for absorbing media the
    1/a^3 term dominates.
    """
    cav.check_small_radius()
    med = cav.host
    f = f_factors(med)
    kap = complex(med.kappa)
    w = med.omega
    a = cav.radius_a
    c = CONSTANTS.c
    scalar = np.imag(
        kap * c * f.f3 / (np.pi * a**3 * w)
        + kap * w * f.f1 / (np.pi * a * c)
        + 1j * kap * w**2 * f.f0 / (np.pi * c**2)
    )
    return CurlGreens(scalar * np.eye(3), CurlKind.IMAGINARY_PART)


def _f0(med: MediumResponse, f0_source: str) -> complex:
    """The cavity factor f0 of a lossless host in the normalization named
    by ``f0_source``."""
    if f0_source not in ("appendix", "main"):
        raise ValueError(f"unknown f0_source {f0_source!r}")
    return f_factors(med).f0 if f0_source == "appendix" else f0_main(med)


def gamma_ch_lfc(cav: CavityConfig, mol: TransitionDipoles, f0_source: str = "appendix") -> float:
    """Cavity-corrected chiral rate for a lossless host: f0 * gamma_ch_bulk.

    ``f0_source`` selects between the rational-factor normalization
    ("appendix", default) and the mode-resolved one ("main"); see module
    docstring.
    """
    med = cav.host
    if not med.lossless:
        raise LosslessRequiredError("gamma_ch_lfc requires a lossless host; use gamma_ch_lfc_absorbing")
    return float(np.real(_f0(med, f0_source))) * gamma_ch_bulk(med, mol)


def gamma_ch_lfc_absorbing(cav: CavityConfig, mol: TransitionDipoles) -> float:
    """Cavity-corrected chiral rate for an absorbing host, leading 1/a^3 order.

    Uses the mu = 1 reduction when mu is exactly 1, the full-permeability
    bracket otherwise. Vanishes for fully real parameters (the 1/a^3 term is
    purely dispersive there).
    """
    cav.check_small_radius()
    med = cav.host
    c = CONSTANTS
    r_ik = rotatory_strength(mol)
    eps, mu, kap = complex(med.eps), complex(med.mu), complex(med.kappa)
    a = cav.radius_a
    if mu == 1.0:
        bracket = 2.0 * kap.real * eps.imag - kap.imag * (2.0 * eps.real + 1.0)
        return (
            2.0 * r_ik / (a**3 * np.pi * c.hbar * c.eps0 * c.c * abs(2.0 * eps + 1.0) ** 2)
            * bracket
        )
    bracket = (
        2.0 * kap.real * (2.0 * eps.real + 1.0) * mu.imag
        + 2.0 * kap.real * eps.imag * (2.0 * mu.real + 1.0)
        - kap.imag * (2.0 * eps.real + 1.0) * (2.0 * mu.real + 1.0)
        + 4.0 * kap.imag * eps.imag * mu.imag
    )
    return (
        6.0 * r_ik
        / (a**3 * np.pi * c.hbar * c.eps0 * c.c * abs(2.0 * eps + 1.0) ** 2 * abs(2.0 * mu + 1.0) ** 2)
        * bracket
    )


def gamma_el_lfc(cav: CavityConfig, mol: TransitionDipoles) -> float:
    """Cavity-corrected electric rate, in the form the host selects.

    Lossless host: (3 eps/(2 eps + 1))^2 * gamma_el_bulk. Absorbing host:
    the near-field 1/a^3 form
    |d|^2 3 Im(eps) / (pi hbar eps0 a^3 |2 eps + 1|^2), which vanishes (with
    a diagnostic warning) when Im eps = 0, i.e. for a host lossy in mu or
    kappa only.
    """
    med = cav.host
    eps = complex(med.eps)
    if med.lossless:
        factor = abs(3.0 * eps / (2.0 * eps + 1.0)) ** 2
        return factor * gamma_el_bulk(med, mol)
    cav.check_small_radius()
    if eps.imag == 0:
        warnings.warn("absorbing gamma_el_lfc is zero for Im eps = 0", UserWarning, stacklevel=2)
        return 0.0
    c = CONSTANTS
    return (
        mol.d_norm_sq / (np.pi * c.hbar * c.eps0 * cav.radius_a**3)
        * 3.0 * eps.imag / abs(2.0 * eps + 1.0) ** 2
    )


def rates_lfc(cav: CavityConfig, mol: TransitionDipoles, f0_source: str = "appendix") -> RateBreakdown:
    """Full cavity-corrected breakdown; absorbing forms used for lossy hosts."""
    absorbing = not cav.host.lossless
    if absorbing:
        g_ch = gamma_ch_lfc_absorbing(cav, mol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            g_el = gamma_el_lfc(cav, mol)
    else:
        g_ch = gamma_ch_lfc(cav, mol, f0_source=f0_source)
        g_el = gamma_el_lfc(cav, mol)
    return RateBreakdown(
        gamma_el=g_el,
        gamma_ch=g_ch,
        gamma_vac=gamma_vacuum(mol),
        gamma_total=g_el + g_ch,
        s_disc=g_ch / g_el if g_el != 0 else 0.0,
        method=Method.CLOSED_FORM,
        assembly="cavity-corrected electric + chiral (gamma_vac reported for reference)",
        details={"absorbing": absorbing, "f0_source": f0_source},
    )


def s_lfc(cav: CavityConfig, mol: TransitionDipoles, f0_source: str = "appendix") -> float:
    """Cavity-corrected degree of discrimination, in the form the host
    selects.

    Lossless host: (3 eps/(2 eps+1))^-2 f0 * s_bulk. Absorbing host:
    (2 R/(3 c |d|^2)) [2 Re kappa - (Im kappa/Im eps)(2 Re eps + 1)], which
    for real kappa collapses to 4 kappa R/(3 c |d|^2), independent of Im eps.
    """
    med = cav.host
    if mol.d_norm_sq == 0:
        raise ZeroDipoleError("degree of discrimination undefined for |d| = 0")
    if med.lossless:
        eps = complex(med.eps)
        return (float(np.real(_f0(med, f0_source))) * s_bulk(med, mol)
                / abs(3.0 * eps / (2.0 * eps + 1.0)) ** 2)
    eps, kap = complex(med.eps), complex(med.kappa)
    r_ik = rotatory_strength(mol)
    pre = 2.0 * r_ik / (3.0 * CONSTANTS.c * mol.d_norm_sq)
    if kap.imag == 0:
        return pre * 2.0 * kap.real
    if eps.imag == 0:
        raise PoleError("absorbing s_lfc with Im kappa != 0 requires Im eps != 0")
    return pre * (2.0 * kap.real - kap.imag / eps.imag * (2.0 * eps.real + 1.0))
