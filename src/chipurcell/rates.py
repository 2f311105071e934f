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
the planar-interface closed forms in this package were derived; every planar
rate, closed form or quadrature, applies these formulas under it to the
five entries of its Green tensors (see chipurcell.halfspace). The two
conventions differ by an overall sign of the symmetric-part contribution
only; this mirrors a sign ambiguity between the bulk and planar families of
closed forms that cannot be reconciled by any single ordering.

Both formulas go through ``contract``, the one place that reads
``TransitionDipoles.isotropic``; the bulk and cavity closed forms, whose
tensors are multiples of the identity, are written in R = Im(d . m*) and
|d|^2. For an isotropic molecule ``contract`` takes the rigid orientation
average <a_i b_j*> = (1/3) delta_ij (a . b*), which turns any matrix
contraction into (1/3) Tr: the parallel projection factor 2/3 (for
diag(1,1,0) matrices) and the full+z factor 4/3 (for diag(1,1,2) matrices).
"""

from __future__ import annotations

import enum
import math
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
    the half-space in every limit. A zero denominator raises PhysicsError,
    and so does a field that is not finite (arithmetic that left the float
    range), so every rates function ends in finite fields or a typed error.
    """

    gamma_el: float
    gamma_ch: float
    gamma_vac: float
    gamma_total: float
    s_disc: float
    method: Method
    assembly: str = ""
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        fields = (self.gamma_el, self.gamma_ch, self.gamma_vac, self.gamma_total, self.s_disc)
        if not all(map(math.isfinite, fields)):
            raise PhysicsError("the arithmetic left the float range: gamma_el, gamma_ch, gamma_vac, "
                               "gamma_total, s_disc = %g, %g, %g, %g, %g" % fields)


def contract(mol: TransitionDipoles, a: np.ndarray, t: np.ndarray, b: np.ndarray) -> complex:
    """The dipole contraction a . t . b* for ``mol``, where a and b are its
    dipoles and t is a real or complex 3x3 array; for an isotropic molecule,
    its orientation average (1/3) Tr(t) (a . b*). The two master formulas
    below are its callers. np.vdot(b, v) is v . b*, and a real t is cast by
    the product with a, not before it."""
    if mol.isotropic:
        return (t[0, 0] + t[1, 1] + t[2, 2]) * np.vdot(b, a) / 3.0
    return np.vdot(b, np.dot(a, t))


def gamma_ch_from_curl(
    curl: np.ndarray,
    mol: TransitionDipoles,
    contraction: Contraction = Contraction.BULK_LOCKED,
) -> float:
    """Chiral decay-rate contribution from the curl of Im G at the molecule.

    ``curl`` is the 3x3 curl Im G at coincidence (units 1/m^2), real or
    complex. Returns (4 mu0 w / hbar) * Im[d . T . m*] (default ordering;
    see module docstring), or the orientation-averaged (1/3) Tr form for
    isotropic molecules. Real-linear in the curl matrix.
    """
    pref = 4.0 * CONSTANTS.mu0 * mol.omega_ik / CONSTANTS.hbar
    a, b = (mol.d, mol.m) if contraction is Contraction.BULK_LOCKED else (mol.m, mol.d)
    return pref * float(contract(mol, a, np.asarray(curl), b).imag)


def gamma_el_from_img(img_g: np.ndarray, mol: TransitionDipoles) -> float:
    """Electric decay-rate contribution (2 mu0 w^2 / hbar) d . Im G . d*.

    ``img_g`` is the 3x3 Im G at coincidence (units 1/m). The contraction is
    real for the symmetric matrices produced by reciprocal environments; the
    residual imaginary part is discarded.
    """
    pref = 2.0 * CONSTANTS.mu0 * mol.omega_ik**2 / CONSTANTS.hbar
    return pref * float(contract(mol, mol.d, np.asarray(img_g), mol.d).real)


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
