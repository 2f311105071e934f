"""Decay rates in an unbounded homogeneous chiral medium.

The two circularly polarized eigenmodes propagate with the medium's wave
numbers ``MediumResponse.k_minus`` = k0 (n_r + kappa) and
``MediumResponse.k_plus`` = k0 (n_r - kappa); their imbalance is what a
chiral transition feels. At coincidence the curl of Im G is isotropic,

    curl Im G = mu (k+^3 - k-^3) / (6 pi (k+ + k-)) * I
              = -mu kappa k0^2 (3 n_r^2 + kappa^2) / (6 pi n_r) * I,

and contracting it with the molecule gives the chiral rate. The closed forms
below keep this exact ratio, in n_r and kappa and not as a difference of
cubes (which loses digits like 1e-16/kappa), so the closed-form and
contraction paths agree to machine precision at every kappa.
"""

from __future__ import annotations

import numpy as np

from .constants import CONSTANTS
from .errors import LosslessRequiredError, PhysicsError
from .media import MediumResponse
from .molecules import TransitionDipoles, rotatory_strength
from .rates import Method, RateBreakdown, _ends_typed, degree_of_discrimination, gamma_vacuum


def _require_lossless(med: MediumResponse, what: str):
    if not med.lossless:
        raise LosslessRequiredError(f"{what} requires a lossless medium (real eps, mu, kappa)")


def _require_propagating(med: MediumResponse, what: str):
    """The chiral closed forms divide by Re n_r: a lossless medium with
    eps mu <= 0 carries no propagating mode."""
    if med.n_r.real == 0:
        raise PhysicsError(f"{what} requires a propagating medium (Re n_r > 0), got n_r = {med.n_r!r}")


def curl_img_g0_coincident(med: MediumResponse) -> np.ndarray:
    """Coincidence limit of curl Im G for a lossless chiral medium.

    Exact form -mu kappa k0^2 (3 n_r^2 + kappa^2)/(6 pi n_r) * I; zero for
    kappa = 0, negative-diagonal for kappa > 0 (the plus mode is the slower
    one). Taken real last: eps mu < 0 (imaginary n_r) gives zero.
    """
    _require_lossless(med, "curl_img_g0_coincident")
    n_r, kap = med.n_r, med.kappa
    scalar = -med.mu * kap * med.k0**2 * (3.0 * n_r**2 + kap**2) / (6.0 * np.pi * n_r)
    return scalar.real * np.eye(3)


def img_g0_coincident(med: MediumResponse) -> np.ndarray:
    """Im G at coincidence for a lossless medium: (n_r mu omega / 6 pi c) I."""
    _require_lossless(med, "img_g0_coincident")
    scalar = med.n_r * med.mu * med.omega / (6.0 * np.pi * CONSTANTS.c)
    return np.real(scalar) * np.eye(3)


@_ends_typed
def gamma_ch_bulk(med: MediumResponse, mol: TransitionDipoles) -> float:
    """Chiral decay-rate contribution in the bulk medium (1/s).

    Closed form -(2 mu w^3 kappa R / (hbar eps0 pi c^4)) (n_r + kappa^2/(3 n_r)),
    reducing to the familiar -2 mu n_r w^3 kappa R/(hbar eps0 pi c^4) at small
    kappa. Negative for matching signs of kappa and R. The coincident curl is
    a multiple of the identity, so this form in R is exact for every molecule,
    isotropic or not.
    """
    _require_lossless(med, "gamma_ch_bulk")
    _require_propagating(med, "gamma_ch_bulk")
    c = CONSTANTS
    n_r = med.n_r.real
    kap = med.kappa.real
    mu = med.mu.real
    r_ik = rotatory_strength(mol)
    w = mol.omega_ik
    return (
        -2.0 * mu * w**3 * kap * r_ik / (c.hbar * c.eps0 * np.pi * c.c**4)
        * (n_r + kap**2 / (3.0 * n_r))
    )


@_ends_typed
def gamma_el_bulk(med: MediumResponse, mol: TransitionDipoles) -> float:
    """Electric decay rate in the bulk medium: mu n_r w^3 |d|^2/(3 pi eps0 hbar c^3)."""
    _require_lossless(med, "gamma_el_bulk")
    c = CONSTANTS
    return (
        med.mu.real * med.n_r.real * mol.omega_ik**3 * mol.d_norm_sq
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
        s_disc=degree_of_discrimination(g_ch, g_el),
        method=Method.CLOSED_FORM,
        assembly="in-medium electric + chiral (gamma_vac reported for reference)",
    )

