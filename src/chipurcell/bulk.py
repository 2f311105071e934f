"""Decay rates in an unbounded homogeneous chiral medium.

The two circularly polarized eigenmodes propagate with wave numbers
k-minus = k0 (n_r + kappa) and k-plus = k0 (n_r - kappa); their imbalance is
what a chiral transition feels. At coincidence the curl of Im G is isotropic,

    curl Im G = mu (k+^3 - k-^3) / (6 pi (k+ + k-)) * I,

and contracting it with the molecule gives the chiral rate. The closed forms
below keep the exact cubic ratio (k+^3 - k-^3)/(k+ + k-) rather than its
leading order in kappa, so the closed-form and matrix-contraction paths agree
to machine precision; the leading-order forms are recovered for small kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import LosslessRequiredError, PhysicsError, ZeroDipoleError
from .media import MediumResponse
from .molecules import TransitionDipoles, rotatory_strength
from .rates import (
    Contraction,
    CurlGreens,
    CurlKind,
    Method,
    RateBreakdown,
    gamma_ch_from_curl,
    gamma_vacuum,
)

_ANTISYM_XY = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class CircularWaveNumbers:
    """Wave numbers of the two circularly polarized modes (1/m)."""

    k_plus: complex
    k_minus: complex
    k0: float
    n_r: complex


def wave_numbers(med: MediumResponse) -> CircularWaveNumbers:
    """Circular-mode wave numbers; the minus mode carries +kappa."""
    k0 = med.k0
    n_r = med.n_r
    return CircularWaveNumbers(
        k_plus=k0 * (n_r - med.kappa),
        k_minus=k0 * (n_r + med.kappa),
        k0=k0,
        n_r=n_r,
    )


def _require_lossless(med: MediumResponse, what: str):
    if not med.lossless:
        raise LosslessRequiredError(f"{what} requires a lossless medium (real eps, mu, kappa)")


def _require_propagating(med: MediumResponse, what: str):
    """The chiral closed forms divide by Re n_r: a lossless medium with
    eps mu <= 0 carries no propagating mode."""
    if med.n_r.real == 0:
        raise PhysicsError(f"{what} requires a propagating medium (Re n_r > 0), got n_r = {med.n_r!r}")


def curl_g0_finite(med: MediumResponse, rho: float) -> CurlGreens:
    """Curl of the homogeneous-medium Green's tensor at separation rho > 0.

    The separation axis is taken along e_z (test convention; the coincidence
    limit is isotropic). Each circular mode contributes
    e^{i k rho}(1 - i k rho)/(2 pi rho^3 (k+ + k-)) times [sigma I + (k rho/2) A]
    with sigma = +1 (-1) for the plus (minus) mode and A the x-y antisymmetric
    block, which is the image of e_theta x e_phi asymmetry under the mapping.
    """
    if rho <= 0:
        raise ZeroDivisionError("curl_g0_finite has a pole at rho = 0")
    wn = wave_numbers(med)
    mat = np.zeros((3, 3), dtype=complex)
    for k, sigma in ((wn.k_plus, 1.0), (wn.k_minus, -1.0)):
        pref = med.mu * np.exp(1j * k * rho) * (1.0 - 1j * k * rho)
        pref /= 2.0 * np.pi * rho**3 * (wn.k_plus + wn.k_minus)
        mat += pref * (sigma * np.eye(3) + (k * rho / 2.0) * _ANTISYM_XY)
    return CurlGreens(mat, CurlKind.FULL)


def curl_img_g0_coincident(med: MediumResponse) -> CurlGreens:
    """Coincidence limit of curl Im G for a lossless chiral medium.

    Exact cubic form mu (k+^3 - k-^3)/(6 pi (k+ + k-)) * I; zero for kappa=0,
    negative-diagonal for kappa > 0 (the plus mode is the slower one).
    """
    _require_lossless(med, "curl_img_g0_coincident")
    wn = wave_numbers(med)
    scalar = med.mu * (wn.k_plus**3 - wn.k_minus**3) / (6.0 * np.pi * (wn.k_plus + wn.k_minus))
    return CurlGreens(scalar.real * np.eye(3), CurlKind.IMAGINARY_PART)


def img_g0_coincident(med: MediumResponse) -> np.ndarray:
    """Im G at coincidence for a lossless medium: (n_r mu omega / 6 pi c) I."""
    _require_lossless(med, "img_g0_coincident")
    scalar = med.n_r * med.mu * med.omega / (6.0 * np.pi * CONSTANTS.c)
    return np.real(scalar) * np.eye(3)


def gamma_ch_bulk(med: MediumResponse, mol: TransitionDipoles) -> float:
    """Chiral decay-rate contribution in the bulk medium (1/s).

    Closed form -(2 mu w^3 kappa R / (hbar eps0 pi c^4)) (n_r + kappa^2/(3 n_r)),
    reducing to the familiar -2 mu n_r w^3 kappa R/(hbar eps0 pi c^4) at small
    kappa. Negative for matching signs of kappa and R. Anisotropic molecules go
    through the explicit contraction (identical here, the curl is isotropic).
    """
    _require_lossless(med, "gamma_ch_bulk")
    _require_propagating(med, "gamma_ch_bulk")
    if not mol.isotropic:
        return gamma_ch_from_curl(curl_img_g0_coincident(med), mol, Contraction.BULK_LOCKED)
    c = CONSTANTS
    n_r = med.n_r.real
    kap = complex(med.kappa).real
    mu = complex(med.mu).real
    r_ik = rotatory_strength(mol)
    w = mol.omega_ik
    return (
        -2.0 * mu * w**3 * kap * r_ik / (c.hbar * c.eps0 * np.pi * c.c**4)
        * (n_r + kap**2 / (3.0 * n_r))
    )


def gamma_el_bulk(med: MediumResponse, mol: TransitionDipoles) -> float:
    """Electric decay rate in the bulk medium: mu n_r w^3 |d|^2/(3 pi eps0 hbar c^3)."""
    _require_lossless(med, "gamma_el_bulk")
    c = CONSTANTS
    return (
        complex(med.mu).real * med.n_r.real * mol.omega_ik**3 * mol.d_norm_sq
        / (3.0 * np.pi * c.eps0 * c.hbar * c.c**3)
    )


def rates_bulk(med: MediumResponse, mol: TransitionDipoles) -> RateBreakdown:
    """Full breakdown for the bulk medium; gamma_el is the in-medium total."""
    g_el = gamma_el_bulk(med, mol)
    g_ch = gamma_ch_bulk(med, mol)
    return RateBreakdown(
        gamma_el=g_el,
        gamma_ch=g_ch,
        gamma_vac=gamma_vacuum(mol),
        gamma_total=g_el + g_ch,
        s_disc=g_ch / g_el if g_el != 0 else 0.0,
        method=Method.CLOSED_FORM,
        assembly="in-medium electric + chiral (gamma_vac reported for reference)",
    )


def s_bulk(med: MediumResponse, mol: TransitionDipoles) -> float:
    """Degree of discrimination in the bulk medium.

    Exact quotient gamma_ch_bulk/gamma_el_bulk, which evaluates to
    -6 kappa R/(c |d|^2) * (1 + kappa^2/(3 n_r^2)); the trailing factor is the
    cubic correction carried by gamma_ch_bulk and is <= 3e-2 for kappa <= 0.3.
    """
    _require_lossless(med, "s_bulk")
    _require_propagating(med, "s_bulk")
    if mol.d_norm_sq == 0:
        raise ZeroDipoleError("degree of discrimination undefined for |d| = 0")
    kap = complex(med.kappa).real
    n_r = med.n_r.real
    r_ik = rotatory_strength(mol)
    return (
        -6.0 * kap * r_ik / (CONSTANTS.c * mol.d_norm_sq)
        * (1.0 + kap**2 / (3.0 * n_r**2))
    )
