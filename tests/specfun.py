"""Spherical Bessel/Hankel functions, associated Legendre functions and the
vector spherical wave functions of a chiral medium, for the tests.

No package module uses them: the bulk and cavity rates are closed forms.
They are the oracle of acceptance criterion 03, which checks that the
circular wave functions are curl eigenfields.

Conventions
-----------
* ``assoc_legendre`` is the Ferrers function P_n^m(u) *without* the
  Condon-Shortley phase (P_1^1(u) = +sqrt(1-u^2)). This is the phase for
  which the curl eigen-relations of the vector wave functions hold with the
  component formulas implemented here; see ``vector_wave_V``.
* The two subscript orderings P_mn / P_nm found in the literature denote the
  same function here (degree n, order m).
* ``vector_wave_V`` and ``vector_wave_W`` are the circular combinations
  (M +- N)/sqrt(2) of the usual transverse vector spherical wave functions.
  They are curl eigenfields: curl V(k) = +k V(k) and curl W(k) = -k W(k),
  for either radial kind, which is what makes them the natural modes of a
  chiral medium.

Spherical Bessel functions accept complex arguments (scipy's are real-only):
j_n uses a Taylor series at small |x| and downward recurrence elsewhere
(upward recurrence is unstable for j), y_n uses stable upward recurrence.
Accuracy is ~1e-13 relative for n <= 10, |x| <= 100.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from chipurcell.errors import PhysicsError


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


class RadialKind(enum.Enum):
    BESSEL = "bessel"
    HANKEL1 = "hankel1"


@dataclass(frozen=True)
class SphericalPoint:
    """Spherical coordinates (r, theta, phi); r >= 0, 0 <= theta <= pi."""

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("r must be non-negative")
        if not (0.0 <= self.theta <= np.pi):
            raise ValueError("theta must lie in [0, pi]")

    def to_cartesian(self) -> np.ndarray:
        st, ct = np.sin(self.theta), np.cos(self.theta)
        sp, cp = np.sin(self.phi), np.cos(self.phi)
        return np.array([self.r * st * cp, self.r * st * sp, self.r * ct])


@dataclass(frozen=True)
class WaveFunctionIndex:
    """Multipole index (parity; order m >= 0; degree n >= 1; radial kind)."""

    parity: Parity
    m: int
    n: int
    radial_kind: RadialKind = RadialKind.BESSEL

    def __post_init__(self):
        if self.n < 1 or self.m < 0 or self.m > self.n:
            raise ValueError(f"require 1 <= n and 0 <= m <= n, got n={self.n}, m={self.m}")


def sph_bessel_j(n: int, x: complex) -> complex:
    """Spherical Bessel function of the first kind j_n(x), complex x."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = complex(x)
    if x == 0:
        return 1.0 + 0.0j if n == 0 else 0.0 + 0.0j
    if abs(x) < 0.5 + 0.1 * n:
        return _sph_j_series(n, x)
    if n == 0:
        return np.sin(x) / x
    # downward recurrence (Miller): start well above n, normalize by j_0 or j_1
    nstart = n + max(16, int(1.5 * abs(x))) + 10
    jp = 0.0 + 0.0j   # j_{nstart+1}, arbitrary seed
    jc = 1e-30 + 0.0j  # j_{nstart}
    vals = {}
    for k in range(nstart, 0, -1):
        jm = (2 * k + 1) / x * jc - jp
        jp, jc = jc, jm
        if k - 1 <= n:
            vals[k - 1] = jc
        # rescale to avoid overflow of the unnormalized recurrence
        if abs(jc) > 1e250:
            jp /= 1e250
            jc /= 1e250
            for kk in vals:
                vals[kk] /= 1e250
    j0 = np.sin(x) / x
    if abs(j0) > 1e-10 * abs(np.cos(x)):
        scale = j0 / vals[0]
    else:  # near a zero of sin(x)/x, normalize by j_1 instead
        j1 = np.sin(x) / x**2 - np.cos(x) / x
        scale = j1 / vals[1]
    return complex(vals[n] * scale)


def _sph_j_series(n: int, x: complex) -> complex:
    # j_n(x) = x^n / (2n+1)!! * sum_k (-x^2/2)^k / (k! (2n+2k+1)!!)
    dfac = 1.0
    for k in range(1, 2 * n + 2, 2):
        dfac *= k
    term = x**n / dfac
    total = term
    k = 0
    while True:
        k += 1
        term *= -0.5 * x * x / (k * (2 * n + 2 * k + 1))
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1e-300) or k > 60:
            return complex(total)


def sph_bessel_y(n: int, x: complex) -> complex:
    """Spherical Bessel function of the second kind y_n(x); pole at x = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = complex(x)
    if x == 0:
        raise PhysicsError("y_n has a pole at x = 0")
    ym = -np.cos(x) / x
    if n == 0:
        return complex(ym)
    yc = -np.cos(x) / x**2 - np.sin(x) / x
    for k in range(1, n):
        ym, yc = yc, (2 * k + 1) / x * yc - ym
    return complex(yc)


def sph_hankel1(n: int, x: complex) -> complex:
    """Spherical Hankel function h_n^(1) = j_n + i y_n; pole at x = 0."""
    x = complex(x)
    if x == 0:
        raise PhysicsError("h_n^(1) has a pole at x = 0")
    return sph_bessel_j(n, x) + 1j * sph_bessel_y(n, x)


def sph_bessel_j_dx(n: int, x: complex) -> complex:
    """d/dx j_n(x) via j_n' = j_{n-1} - (n+1)/x j_n."""
    x = complex(x)
    if n == 0:
        if x == 0:
            return 0.0 + 0.0j
        return -sph_bessel_j(1, x)
    if x == 0:
        return (1.0 / 3.0 + 0.0j) if n == 1 else 0.0 + 0.0j
    return sph_bessel_j(n - 1, x) - (n + 1) / x * sph_bessel_j(n, x)


def sph_bessel_y_dx(n: int, x: complex) -> complex:
    x = complex(x)
    if n == 0:
        return -sph_bessel_y(1, x)
    return sph_bessel_y(n - 1, x) - (n + 1) / x * sph_bessel_y(n, x)


def assoc_legendre(n: int, m: int, u: float) -> float:
    """Associated Legendre function P_n^m(u), Ferrers, no Condon-Shortley phase.

    P_1^0(u) = u, P_1^1(u) = sqrt(1-u^2), P_2^1(u) = 3 u sqrt(1-u^2), ...
    Domain |u| <= 1; 0 <= m <= n.
    """
    if not (0 <= m <= n):
        raise ValueError("require 0 <= m <= n")
    if abs(u) > 1:
        raise ValueError("assoc_legendre requires |u| <= 1")
    s = np.sqrt(max(0.0, 1.0 - u * u))
    # P_m^m = (2m-1)!! s^m, then upward in degree
    pmm = 1.0
    for k in range(1, 2 * m, 2):
        pmm *= k
    pmm *= s**m
    if n == m:
        return float(pmm)
    pm1 = u * (2 * m + 1) * pmm  # P_{m+1}^m
    if n == m + 1:
        return float(pm1)
    for ell in range(m + 2, n + 1):
        pmm, pm1 = pm1, ((2 * ell - 1) * u * pm1 - (ell + m - 1) * pmm) / (ell - m)
    return float(pm1)


def assoc_legendre_dtheta(n: int, m: int, theta: float) -> float:
    """d/dtheta P_n^m(cos theta), same phase convention as assoc_legendre."""
    u = np.cos(theta)
    s = np.sin(theta)
    if abs(s) < 1e-14:
        # analytic pole limits: dP/dtheta vanishes except for m = 1
        if m != 1:
            return 0.0
        sign = 1.0 if u > 0 else (-1.0) ** n
        return sign * n * (n + 1) / 2.0  # lim of P_n^1 / sin(theta) slope
    pn = assoc_legendre(n, m, u)
    term = (n + m) * assoc_legendre(n - 1, m, u) if n - 1 >= m else 0.0
    return float((n * u * pn - term) / s)


def _pi_mn(n: int, m: int, theta: float) -> float:
    """m P_n^m(cos theta) / sin(theta), finite at the poles."""
    if m == 0:
        return 0.0
    s = np.sin(theta)
    if abs(s) < 1e-14:
        if m != 1:
            return 0.0
        u = np.cos(theta)
        sign = 1.0 if u > 0 else (-1.0) ** (n + 1)
        return sign * n * (n + 1) / 2.0
    return m * assoc_legendre(n, m, np.cos(theta)) / s


def _radial_pair(kind: RadialKind, n: int, x: complex):
    """(z_n(x), (1/x) d/dx [x z_n(x)]) for the chosen radial kind."""
    if kind is RadialKind.BESSEL:
        u = sph_bessel_j(n, x)
        du = sph_bessel_j_dx(n, x)
    else:
        if x == 0:
            raise PhysicsError("Hankel radial functions are singular at r = 0")
        u = sph_hankel1(n, x)
        du = sph_bessel_j_dx(n, x) + 1j * sph_bessel_y_dx(n, x)
    v = u / x + du if x != 0 else (2.0 / 3.0 if n == 1 else (1.0 if n == 0 else 0.0))
    return u, v


def _vector_wave(idx: WaveFunctionIndex, p: SphericalPoint, k: complex, sign: int):
    """Common body of V (+) and W (-): (M + sign*N)/sqrt(2), spherical basis."""
    if idx.radial_kind is RadialKind.HANKEL1 and p.r == 0:
        raise PhysicsError("Hankel-kind wave functions are singular at r = 0")
    n, m = idx.n, idx.m
    x = complex(k) * p.r
    u, v = _radial_pair(idx.radial_kind, n, x)
    ur = u / x if x != 0 else ((1.0 / 3.0 + 0j) if n == 1 else 0.0 + 0.0j)
    pi = _pi_mn(n, m, p.theta)
    tau = assoc_legendre_dtheta(n, m, p.theta)
    pnm = assoc_legendre(n, m, np.cos(p.theta))
    if idx.parity is Parity.EVEN:
        azim_m, azim_n = -np.sin(m * p.phi), np.cos(m * p.phi)
    else:
        azim_m, azim_n = np.cos(m * p.phi), np.sin(m * p.phi)
    # M = (pi * azim_m * u) e_theta - (tau * azim_n * u) e_phi
    # N = (n(n+1) pnm azim_n u/x) e_r + (tau azim_n v) e_theta + (pi azim_m v) e_phi
    e_r = sign * n * (n + 1) * pnm * azim_n * ur
    e_theta = pi * azim_m * u + sign * tau * azim_n * v
    e_phi = -tau * azim_n * u + sign * pi * azim_m * v
    return np.array([e_r, e_theta, e_phi]) / np.sqrt(2.0)


def vector_wave_V(idx: WaveFunctionIndex, p: SphericalPoint, k: complex) -> np.ndarray:
    """Vector wave function V = (M + N)/sqrt(2); curl V(k) = +k V(k).

    Returns the complex (e_r, e_theta, e_phi) components at ``p``.
    """
    return _vector_wave(idx, p, k, +1)


def vector_wave_W(idx: WaveFunctionIndex, p: SphericalPoint, k: complex) -> np.ndarray:
    """Vector wave function W = (M - N)/sqrt(2); curl W(k) = -k W(k)."""
    return _vector_wave(idx, p, k, -1)


def spherical_to_cartesian(vec_sph: np.ndarray, theta: float, phi: float) -> np.ndarray:
    """Convert (e_r, e_theta, e_phi) components to Cartesian at (theta, phi)."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    basis = np.array([
        [st * cp, ct * cp, -sp],
        [st * sp, ct * sp, cp],
        [ct, -st, 0.0],
    ])
    return basis @ np.asarray(vec_sph)


def vector_wave_cartesian(
    idx: WaveFunctionIndex, xyz: np.ndarray, k: complex, which: str = "V"
) -> np.ndarray:
    """V or W as a Cartesian vector field of a Cartesian position (for curl tests)."""
    x, y, z = np.asarray(xyz, dtype=float)
    r = float(np.sqrt(x * x + y * y + z * z))
    theta = float(np.arccos(np.clip(z / r, -1.0, 1.0))) if r > 0 else 0.0
    phi = float(np.arctan2(y, x))
    p = SphericalPoint(r, theta, phi)
    f = vector_wave_V if which == "V" else vector_wave_W
    return spherical_to_cartesian(f(idx, p, k), theta, phi)
