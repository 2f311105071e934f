"""Transition-dipole model of a chiral molecule.

A transition is characterised by its electric dipole vector d (C m), its
magnetic dipole vector m (A m^2) and the transition angular frequency. The
handedness of the transition enters through the optical rotatory strength
R = Im(d . m*): mirror-image molecules (enantiomers) differ by the sign of R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_COMPLEX = np.dtype(complex)


@dataclass(frozen=True)
class TransitionDipoles:
    """Electric/magnetic transition dipoles and transition frequency.

    Parameters
    ----------
    d : array_like of complex, shape (3,)
        Electric transition dipole (C m), Cartesian components.
    m : array_like of complex, shape (3,)
        Magnetic transition dipole (A m^2), Cartesian components.
    omega_ik : float
        Transition angular frequency (rad/s), positive and finite.
    isotropic : bool
        When True, geometry code orientation-averages the dipole pair
        instead of using the explicit Cartesian components.
    """

    d: np.ndarray
    m: np.ndarray
    omega_ik: float
    isotropic: bool = False

    def __post_init__(self):
        d, m = self.d, self.m
        # np.asarray returns a complex ndarray as it is: only other inputs are converted
        if not (type(d) is type(m) is np.ndarray and d.dtype is m.dtype is _COMPLEX):
            d, m = np.asarray(d, dtype=complex), np.asarray(m, dtype=complex)
            object.__setattr__(self, "d", d)
            object.__setattr__(self, "m", m)
        if d.shape != (3,) or m.shape != (3,):
            raise ValueError(f"d and m must have shape (3,), got {d.shape} and {m.shape}")
        if not (0 < self.omega_ik < math.inf):  # NaN fails too
            raise ValueError(f"omega_ik must be positive and finite, got {self.omega_ik}")

    @property
    def d_norm_sq(self) -> float:
        """|d|^2 = sum_i |d_i|^2 (C^2 m^2)."""
        return float(np.vdot(self.d, self.d).real)


def rotatory_strength(mol: TransitionDipoles) -> float:
    """Optical rotatory strength R = Im(d . m*) = sum_i Im(d_i m_i*), in C A m^3.

    Real by construction; maximal for colinear d and m with a quarter-wave
    relative phase, zero for any molecule lacking simultaneous electric and
    magnetic response along a common axis.
    """
    return float(np.imag(np.dot(mol.d, np.conj(mol.m))))
