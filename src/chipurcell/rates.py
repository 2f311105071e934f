"""Assembly of decay rates from (curls of) Green's tensors.

Two master contractions are provided:

* the electric rate Gamma_el = (2 mu0 w^2 / hbar) d . Im G . d*,
* the chiral rate   Gamma_ch = (4 mu0 w / hbar) Im[ d . (curl Im G) . m* ].

Both tensors are plain 3x3 arrays at the molecule: Im G in 1/m and
curl Im G in 1/m^2.

The ordering of d and m in the chiral contraction fixes a global sign for
the symmetric part of the curl matrix (antisymmetric parts are insensitive
to the ordering). The default ``BULK_LOCKED`` ordering is calibrated so the
contraction of the homogeneous-medium coincidence curl reproduces the bulk
closed form. The transposed ordering ``PLANAR_PAPER`` is the one under which
the planar-interface closed forms in this package were derived; the planar
numeric pathway uses it so that quadrature and closed forms agree. The two
conventions differ by an overall sign of the symmetric-part contribution
only; this mirrors a sign ambiguity between the bulk and planar families of
closed forms that cannot be reconciled by any single ordering.

Every dipole contraction in the package, these two and the planar closed
forms' weighted responses, goes through ``contract``, the one place that
reads ``TransitionDipoles.isotropic``. For an isotropic molecule it takes
the rigid orientation average <a_i b_j*> = (1/3) delta_ij (a . b*), which
turns any matrix contraction into (1/3) Tr. This reproduces the familiar
parallel projection factor 2/3 (for diag(1,1,0) matrices) and the full+z
factor 4/3 (for diag(1,1,2) matrices).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .constants import CONSTANTS
from .errors import PhysicsError
from .molecules import TransitionDipoles


class Contraction(enum.Enum):
    """Ordering of the dipole vectors in the chiral contraction."""

    BULK_LOCKED = "bulk_locked"      # Im[d . T . m*]
    PLANAR_PAPER = "planar_paper"    # Im[m . T . d*]


class Method(enum.Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class RateBreakdown:
    """Decay-rate decomposition for one molecule/environment configuration.

    ``assembly`` records how gamma_total was put together, since the electric
    entry is the in-medium total for bulk geometries but the scattering-only
    part for planar ones (where gamma_vac is added separately).

    ``s_disc`` is gamma_ch over the geometry's non-discriminating rate, formed
    by ``degree_of_discrimination``: gamma_el for the bulk medium and the
    cavity, gamma_vac for the perfect mirror, and gamma_vac + gamma_el for
    the half-space in every limit. A zero denominator raises PhysicsError.
    """

    gamma_el: float
    gamma_ch: float
    gamma_vac: float
    gamma_total: float
    s_disc: float
    method: Method
    assembly: str = ""
    details: dict = field(default_factory=dict)


def contract(mol: TransitionDipoles, a: np.ndarray, t: np.ndarray, b: np.ndarray) -> complex:
    """The dipole contraction a . t . b* for ``mol``, where a and b are its
    dipoles and t is a 3x3 complex array; for an isotropic molecule, its
    orientation average (1/3) Tr(t) (a . b*)."""
    if mol.isotropic:
        return t.trace() / 3.0 * a.dot(b.conj())
    return a @ t @ b.conj()


def gamma_ch_from_curl(
    curl: np.ndarray,
    mol: TransitionDipoles,
    contraction: Contraction = Contraction.BULK_LOCKED,
) -> float:
    """Chiral decay-rate contribution from the curl of Im G at the molecule.

    ``curl`` is the 3x3 curl Im G at coincidence (units 1/m^2), real or
    complex; it is contracted as a complex array. Returns
    (4 mu0 w / hbar) * Im[d . T . m*] (default ordering; see module
    docstring), or the orientation-averaged (1/3) Tr form for isotropic
    molecules. Real-linear in the curl matrix.
    """
    t = np.asarray(curl, dtype=complex).reshape(3, 3)
    pref = 4.0 * CONSTANTS.mu0 * mol.omega_ik / CONSTANTS.hbar
    a, b = (mol.d, mol.m) if contraction is Contraction.BULK_LOCKED else (mol.m, mol.d)
    return pref * float(np.imag(contract(mol, a, t, b)))


def gamma_el_from_img(img_g: np.ndarray, mol: TransitionDipoles) -> float:
    """Electric decay-rate contribution (2 mu0 w^2 / hbar) d . Im G . d*.

    ``img_g`` is the 3x3 Im G at coincidence (units 1/m). The contraction is
    real for the symmetric matrices produced by reciprocal environments; the
    residual imaginary part is discarded.
    """
    t = np.asarray(img_g, dtype=complex).reshape(3, 3)
    pref = 2.0 * CONSTANTS.mu0 * mol.omega_ik**2 / CONSTANTS.hbar
    return pref * float(np.real(contract(mol, mol.d, t, mol.d)))


def gamma_vacuum(mol: TransitionDipoles) -> float:
    """Free-space spontaneous decay rate w^3 |d|^2 / (3 pi eps0 hbar c^3)."""
    c = CONSTANTS
    return mol.omega_ik**3 * mol.d_norm_sq / (3.0 * np.pi * c.eps0 * c.hbar * c.c**3)


def degree_of_discrimination(gamma_disc: float, gamma_nd: float) -> float:
    """Normalized enantiomer contrast (G+ - G-)/(G+ + G-) = gamma_disc/gamma_nd.

    ``gamma_disc`` is the part of the rate that flips sign between
    enantiomers and ``gamma_nd`` the non-discriminating part; every
    ``rates_*`` function forms its ``s_disc`` here. A zero ``gamma_nd`` (a
    vanishing electric dipole, or a cavity host lossy only in mu or kappa)
    raises PhysicsError.
    """
    if gamma_nd == 0:
        raise PhysicsError("degree of discrimination undefined: the non-discriminating rate is zero")
    return gamma_disc / gamma_nd
