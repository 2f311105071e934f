"""Material response of an isotropic bi-isotropic (chiral) medium.

The constitutive convention couples D and B to both E and H through the
cross-susceptibility kappa (Boys-Post form); kappa > 0 labels a right-handed
medium. All response functions are evaluated at a single angular frequency.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS


@dataclass(frozen=True)
class MediumResponse:
    """Complex (eps, mu, kappa) of a chiral medium at angular frequency omega.

    Parameters
    ----------
    eps, mu, kappa : complex
        Relative permittivity, relative permeability and chiral
        cross-susceptibility (all dimensionless). Any number is accepted
        and stored as a Python ``complex``.
    omega : float
        Angular frequency in rad/s.
    """

    eps: complex
    mu: complex
    kappa: complex
    omega: float

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        for name in ("eps", "mu", "kappa"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @property
    def k0(self) -> float:
        """Vacuum wave number omega/c (1/m)."""
        return self.omega / CONSTANTS.c

    @functools.cached_property
    def n_r(self) -> complex:
        """Non-chiral refractive index, principal sqrt(eps*mu) with Re >= 0."""
        n = np.sqrt(self.eps * self.mu)
        # principal branch already has Re >= 0; guard the negative-real-axis cut
        if n.real < 0:
            n = -n
        return complex(n)

    @property
    def k_plus(self) -> complex:
        """Wave number k0 (n_r - kappa) of the plus circular mode (1/m)."""
        return self.k0 * (self.n_r - self.kappa)

    @property
    def k_minus(self) -> complex:
        """Wave number k0 (n_r + kappa) of the minus circular mode (1/m)."""
        return self.k0 * (self.n_r + self.kappa)

    @property
    def lossless(self) -> bool:
        """True only when Im eps = Im mu = Im kappa = 0 exactly."""
        return self.eps.imag == 0.0 and self.mu.imag == 0.0 and self.kappa.imag == 0.0
