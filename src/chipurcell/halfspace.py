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
and closed forms are mutually consistent (see chipurcell.rates). The cross
reflection coefficient of ``fresnel_general`` is oriented so that its large
k-parallel limit coincides with ``fresnel_nonretarded``.

The numeric pathway evaluates the exact wavevector integrals of the
scattering Green's tensor and is the physical arbiter between the two
closed-form limits. For lossless media its near-field chiral response stays
bounded as z -> 0 (every evanescent-tail contribution to the curl is real
there), whereas the nonretarded closed forms diverge as 1/z^2; the two
therefore agree only for the mirror, whose cross coefficients are real.
See ``rates_halfspace`` and the test suite for the documented comparison.
"""

from __future__ import annotations

import cmath
import enum
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bulk import wave_numbers
from .constants import CONSTANTS
from .errors import LosslessRequiredError, PhysicsError, PoleError, QuadratureError
from .media import MediumResponse
from .molecules import TransitionDipoles, rotatory_strength
from .rates import (
    Contraction,
    CurlGreens,
    CurlKind,
    Method,
    RateBreakdown,
    gamma_ch_from_curl,
    gamma_el_from_img,
    gamma_vacuum,
)
from .sommerfeld import QuadratureResult, QuadratureSpec, integrate_evanescent, integrate_traveling


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


@dataclass(frozen=True)
class ReflectionSet:
    """The four reflection coefficients at one (omega, k_par)."""

    r_ss: complex
    r_pp: complex
    r_sp: complex
    r_ps: complex
    k_par: float
    omega: float


def _sqrt_im(x) -> np.ndarray:
    """Elementwise principal square root pushed onto the Im >= 0 branch."""
    r = np.sqrt(np.asarray(x, dtype=complex))
    return np.where(r.imag < 0, -r, r)


# ---------------------------------------------------------------------------
# Reflection coefficients
# ---------------------------------------------------------------------------

def planar_reflections(med: MediumResponse, k_perp) -> tuple:
    """(r_ss, r_pp, r_sp) of the vacuum / chiral-medium interface as arrays
    over the vacuum perpendicular wave number k_perp (real on the traveling
    segment, i kappa_perp on the evanescent tail); r_ps = -r_sp.

    Built from the mode amplitudes
    a(+-) = sqrt(mu/eps) (k0/k_perp) sqrt(k(+-)^2 - k0^2 + k_perp^2) / k(+-),
    all roots on the Im >= 0 branch, so no k_par is formed and a grazing
    k_perp keeps its full precision. At kappa = 0 the diagonal coefficients
    reduce to the textbook dielectric Fresnel coefficients and r_sp = 0; for
    k_perp -> i infinity the set tends to ``fresnel_nonretarded``. An exact
    pole (k_perp = 0, or a vanishing denominator) gives non-finite entries.
    """
    eps, mu = complex(med.eps), complex(med.mu)
    wn = wave_numbers(med)
    k_perp = np.asarray(k_perp, dtype=complex)
    k = np.array([wn.k_plus, wn.k_minus]).reshape((2,) + (1,) * k_perp.ndim)  # modes first
    em = eps / mu
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(mu / eps) * wn.k0 / k_perp
        a_p, a_m = root * _sqrt_im(k * k - wn.k0**2 + k_perp * k_perp) / k
        b_p, b_m = 1.0 + em * a_p, 1.0 + em * a_m
        d = (1.0 + a_m) * b_p + (1.0 + a_p) * b_m
        r_sp = (2j * np.sqrt(eps / mu)) * (a_p - a_m) / d
        r_ss = ((1.0 + a_m) * (2.0 - b_p) + (1.0 + a_p) * (2.0 - b_m)) / d  # 2 - b = 1 - em a
        r_pp = ((1.0 - a_m) * b_p + (1.0 - a_p) * b_m) / d
    return r_ss, r_pp, r_sp


def fresnel_general(med: MediumResponse, k_par: float) -> ReflectionSet:
    """``planar_reflections`` at one parallel wave number k_par.

    Raises PoleError at a pole: grazing incidence (k_par = k0) or a
    vanishing reflection denominator (surface mode).
    """
    k0 = med.k0
    k_perp = cmath.sqrt(k0 * k0 - k_par * k_par)  # principal root of a real: Im >= 0
    r_ss, r_pp, r_sp = (complex(r) for r in planar_reflections(med, k_perp))
    if not all(map(cmath.isfinite, (r_ss, r_pp, r_sp))):
        raise PoleError(f"reflection set has a pole at k_par = {k_par!r} (k0 = {k0!r})")
    return ReflectionSet(r_ss, r_pp, r_sp, -r_sp, k_par, med.omega)


def fresnel_nonretarded(med: MediumResponse) -> ReflectionSet:
    """k-independent reflection set governing the near-field (k_par >> k0).

    r_sp = 2 i kappa / (eps mu - kappa^2 + eps + mu + 1), with diagonal
    coefficients even in kappa. Purely imaginary r_sp for lossless media.
    """
    eps, mu, kap = complex(med.eps), complex(med.mu), complex(med.kappa)
    den = eps * mu - kap * kap + eps + mu + 1.0
    if den == 0:
        raise PoleError("nonretarded reflection denominator vanished")
    r_sp = 2j * kap / den
    r_ss = (eps * mu - kap * kap - eps + mu - 1.0) / den
    r_pp = (eps * mu - kap * kap + eps - mu - 1.0) / den
    return ReflectionSet(r_ss, r_pp, r_sp, -r_sp, float("inf"), med.omega)


def fresnel_retarded(med: MediumResponse) -> ReflectionSet:
    """Normal-incidence reflection set governing the far field.

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
    eps, mu = complex(med.eps), complex(med.mu)
    wn = wave_numbers(med)
    n_r, kp, km = wn.n_r, wn.k_plus, wn.k_minus
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
    return ReflectionSet(r_ss, r_pp, r_sp, -r_sp, 0.0, med.omega)


def mirror_reflections(handedness: Handedness, omega: float) -> Callable[[np.ndarray], tuple]:
    """Constant reflections (0, 0, +-1) of the perfect chiral mirror; the
    constants broadcast against any k_perp array."""
    r = (0.0, 0.0, handedness.sign)
    return lambda k_perp: r


# ---------------------------------------------------------------------------
# Numeric pathway
# ---------------------------------------------------------------------------

def _medium_breakpoints(med: Optional[MediumResponse]):
    """Branch points of the circular wave numbers, as panel seeds.

    Returns (traveling k_perp seeds, evanescent kappa_perp seeds): the mode
    with |k| > k0 kinks the evanescent tail at kappa_perp = sqrt(k^2 - k0^2),
    one with |k| < k0 kinks the traveling segment at k_perp = sqrt(k0^2 - k^2).
    """
    if med is None:
        return (), ()
    wn = wave_numbers(med)
    k0 = wn.k0
    trav, evan = [], []
    for k in (wn.k_plus, wn.k_minus):
        q = complex(k) ** 2 - k0 * k0
        if q.real >= 0:
            evan.append(float(np.real(np.sqrt(q))))
        else:
            trav.append(float(np.real(np.sqrt(-q))))
    return tuple(p for p in trav if p > 0), tuple(p for p in evan if p > 0)


# the channels of _scatter_integrals, in order
_CHANNELS = ("curl xx", "curl zz", "curl x-y", "G xx", "G zz")


def _run_quadrature(res: QuadratureResult, segment: str, spec: QuadratureSpec) -> np.ndarray:
    if res.converged:
        return res.value
    # accept a degraded-but-bounded estimate; hard failure above 1e-4 relative
    failed = res.err_estimate > 1e-4 * np.abs(res.value) + spec.abs_floor
    if not failed.any():
        return res.value
    i = int(np.argmax(failed))  # the first failing channel
    raise QuadratureError(
        f"{segment} quadrature did not converge in channel {_CHANNELS[i]} "
        f"(err={res.err_estimate[i]:.3e}, value={abs(res.value[i]):.3e}, "
        f"panels={res.panels_used})",
        err_estimate=float(res.err_estimate[i]),
    )


def _scatter_integrals(
    geom: PlanarGeometry,
    reflections: Callable[[np.ndarray], tuple],
    omega: float,
    spec: QuadratureSpec,
) -> tuple[CurlGreens, np.ndarray]:
    """(Im curl G, Im G) of the scattering Green's tensor at the molecule.

    One planar integrand of the vacuum k_perp carries the five channels of
    ``_CHANNELS``: curl G xx (= yy), zz and x-y (= -yx), and G xx (= yy),
    zz. The traveling segment integrates it over real k_perp in [0, k0], the
    evanescent tail over k_perp = i kappa_perp (where k_par dk_par / k_perp
    = -i dkappa_perp), each in a single adaptive integral that evaluates the
    reflections once per refinement round, on the nodes of every panel the
    round evaluates.
    """
    z = geom.z_m
    k0 = omega / CONSTANTS.c
    bps_trav, bps_evan = _medium_breakpoints(geom.medium)

    def channels(k_perp: np.ndarray) -> np.ndarray:
        r_ss, r_pp, r_sp = reflections(k_perp)
        perp2 = (k_perp / k0) ** 2
        par2 = 2.0 * (1.0 - perp2)  # 2 k_par^2 / k0^2
        values = np.exp(2j * k_perp * z) * np.array([
            r_sp * (1.0 - perp2),
            r_sp * par2,
            (k_perp / k0) * (r_ss - r_pp),
            1j * (r_ss - perp2 * r_pp),
            1j * par2 * r_pp,
        ])
        bad = ~np.isfinite(values).all(axis=0)
        if bad.any():
            raise PoleError(f"planar integrand not finite at k_perp = {k_perp[bad][0]!r}, k0 = {k0!r}")
        return values

    trav = integrate_traveling(channels, k0, z, spec, breakpoints=bps_trav)
    evan = integrate_evanescent(
        lambda kappa_perp: -1j * channels(1j * kappa_perp), z, spec, breakpoints=bps_evan,
    )
    total = _run_quadrature(trav, "traveling", spec) + _run_quadrature(evan, "evanescent", spec)
    xx, zz, asym, g_xx, g_zz = (total * np.array([k0, k0, k0, 1.0, 1.0]) / (8.0 * np.pi)).imag
    curl = np.array([[xx, asym, 0.0], [-asym, xx, 0.0], [0.0, 0.0, zz]])
    return CurlGreens(curl, CurlKind.IMAGINARY_PART), np.diag([g_xx, g_xx, g_zz])


def curl_img_scatter_numeric(
    geom: PlanarGeometry,
    reflections: Callable[[np.ndarray], tuple],
    omega: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> CurlGreens:
    """Im of the curl of the scattering Green's tensor at the molecule.

    Evaluates the azimuth-reduced radial integrals, split into the traveling
    segment (k_perp in [0, k0]) and the evanescent tail (kappa_perp in
    [0, inf)):

        curl G = (k0/8pi) * int (k_par dk_par / k_perp) e^{2 i k_perp z}
                 { r_sp [(1 - k_perp^2/k0^2)(xx + yy) + (2 k_par^2/k0^2) zz]
                   + (k_perp/k0)(r_ss - r_pp)(xy - yx) }

    The diagonal block is driven by the cross reflection, the antisymmetric
    x-y block by the difference of the diagonal reflections. ``reflections``
    maps an array of vacuum k_perp to (r_ss, r_pp, r_sp), as
    ``planar_reflections`` and ``mirror_reflections`` do.
    """
    return _scatter_integrals(geom, reflections, omega, spec)[0]


def img_g_scatter_numeric(
    geom: PlanarGeometry,
    reflections: Callable[[np.ndarray], tuple],
    omega: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Im of the scattering Green's tensor at the molecule (3x3, units 1/m).

    The azimuth-reduced integrand couples only the diagonal reflections; the
    cross terms integrate to zero at coincidence. Drives the electric
    scattering rate through gamma_el_from_img.
    """
    return _scatter_integrals(geom, reflections, omega, spec)[1]


# ---------------------------------------------------------------------------
# Closed-form rates
# ---------------------------------------------------------------------------

def _d_par_m_par(mol: TransitionDipoles) -> float:
    """Im(d_par . m_par*), the parallel-dipole chiral response."""
    return float(np.imag(mol.d[0] * np.conj(mol.m[0]) + mol.d[1] * np.conj(mol.m[1])))


def _d_full_plus_z(mol: TransitionDipoles) -> float:
    """Im(d . m* + d_z m_z*), the full + z-weighted chiral response."""
    return float(np.imag(np.dot(mol.d, np.conj(mol.m)) + mol.d[2] * np.conj(mol.m[2])))


def _im_cross_z(mol: TransitionDipoles) -> float:
    """Im[(d x m*) . e_z]; zero for isotropic molecules and for d || m real-phased."""
    return float(np.imag(mol.d[0] * np.conj(mol.m[1]) - mol.d[1] * np.conj(mol.m[0])))


def _d_par_sq(mol: TransitionDipoles) -> float:
    if mol.isotropic:
        return 2.0 / 3.0 * mol.d_norm_sq
    return float(abs(mol.d[0]) ** 2 + abs(mol.d[1]) ** 2)


def _warn_limit(limit: Limit, k0z: float):
    if limit is Limit.RETARDED and k0z < 10.0:
        warnings.warn(
            f"retarded closed form used at omega z/c = {k0z:.3g} < 10; "
            "accuracy degrades, consider the numeric method",
            UserWarning,
            stacklevel=3,
        )
    if limit is Limit.NONRETARDED and k0z > 0.1:
        warnings.warn(
            f"nonretarded closed form used at omega z/c = {k0z:.3g} > 0.1; "
            "accuracy degrades, consider the numeric method",
            UserWarning,
            stacklevel=3,
        )


def rates_mirror(
    geom: PlanarGeometry,
    mol: TransitionDipoles,
    limit: Limit,
    spec: QuadratureSpec = QuadratureSpec(),
    drreths_form: str = "dimensional",
) -> RateBreakdown:
    """Decay-rate breakdown in front of a perfect chiral mirror.

    The scattering contribution is purely chiral in the nonretarded limit
    (the idealized dielectric-mirror electric part vanishes there); in the
    retarded limit the electric scattering part has two published
    normalizations selected by ``drreths_form``:

    * ``"dimensional"`` (default): mu0 w^2 |d_par|^2 sin(2wz/c)/(8 pi hbar z),
      consistent in units with the electric master formula;
    * ``"printed"``: the same expression without the w^2 factor, retained
      verbatim for cross-checking (its units are anomalous).

    The retarded closed form keeps only the parallel-dipole chiral channel;
    the numeric pathway also carries the same-order z-dipole channel, so the
    two agree for molecules with in-plane dipoles and for the nonretarded
    limit, where the closed diag(1,1,2) structure is complete.

    s_disc is the exact quotient gamma_ch / gamma_vacuum.
    """
    if geom.handedness is None:
        raise PhysicsError("mirror geometry requires a handedness")
    z = geom.z_m
    w = mol.omega_ik
    c = CONSTANTS
    k0 = w / c.c
    sgn = geom.handedness.sign
    g_vac = gamma_vacuum(mol)
    method = Method.CLOSED_FORM

    if limit is Limit.RETARDED:
        _warn_limit(limit, k0 * z)
        osc = np.sin(2.0 * w * z / c.c)
        if mol.isotropic:
            g_ch = sgn * c.mu0 * w * rotatory_strength(mol) * osc / (6.0 * np.pi * c.hbar * z**2)
        else:
            g_ch = sgn * c.mu0 * w * osc / (4.0 * np.pi * c.hbar * z**2) * _d_par_m_par(mol)
        dsq = _d_par_sq(mol)
        if drreths_form == "dimensional":
            g_el = c.mu0 * w**2 * dsq * osc / (8.0 * np.pi * c.hbar * z)
        elif drreths_form == "printed":
            g_el = c.mu0 * dsq * osc / (8.0 * np.pi * c.hbar * z)
        else:
            raise ValueError(f"unknown drreths_form {drreths_form!r}")
    elif limit is Limit.NONRETARDED:
        _warn_limit(limit, k0 * z)
        if mol.isotropic:
            g_ch = sgn * c.mu0 * c.c * rotatory_strength(mol) / (6.0 * np.pi * c.hbar * z**3)
        else:
            g_ch = sgn * c.mu0 * c.c / (8.0 * np.pi * c.hbar * z**3) * _d_full_plus_z(mol)
        g_el = 0.0
    else:
        curl = curl_img_scatter_numeric(geom, mirror_reflections(geom.handedness, w), w, spec)
        g_ch = gamma_ch_from_curl(curl, mol, Contraction.PLANAR_PAPER)
        g_el = 0.0  # diagonal reflections vanish for the perfect chiral mirror
        method = Method.QUADRATURE

    return RateBreakdown(
        gamma_el=g_el,
        gamma_ch=g_ch,
        gamma_vac=g_vac,
        gamma_total=g_vac + g_el + g_ch,
        s_disc=g_ch / g_vac,
        method=method,
        assembly="vacuum + scattering (gamma_el is the scattering-only part)",
    )


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
    the arbiter between the limits. Note the nonretarded closed form is an
    extrapolation whose 1/z^2 growth is not reproduced by the exact
    integrals for lossless media (whose near-field chiral response stays
    bounded); the CLI's ``compare_numeric`` option exposes the honest
    comparison.

    s_disc: gamma_ch/(gamma_vac + gamma_el) for retarded/numeric,
    gamma_ch/gamma_vac for nonretarded (where gamma_el vanishes).
    """
    med = geom.medium
    if med is None:
        raise PhysicsError("half-space geometry requires a medium")
    z = geom.z_m
    w = mol.omega_ik
    c = CONSTANTS
    k0 = w / c.c
    g_vac = gamma_vacuum(mol)
    method = Method.CLOSED_FORM

    if limit is Limit.RETARDED:
        _warn_limit(limit, k0 * z)
        refl = fresnel_retarded(med)
        arg = 2.0 * w * z / c.c
        osc_sp = (np.cos(arg) - 1.0) * refl.r_sp.real + np.sin(arg) * refl.r_sp.imag
        if mol.isotropic:
            g_ch = c.mu0 * w**2 * rotatory_strength(mol) / (3.0 * np.pi * c.c * c.hbar * z) * osc_sp
        else:
            diag = refl.r_ss + refl.r_pp
            osc_diag = np.cos(arg) * diag.real - np.sin(arg) * diag.imag
            g_ch = c.mu0 * w**2 / (2.0 * np.pi * c.hbar * c.c * z) * (
                _d_par_m_par(mol) * osc_sp + 0.5 * _im_cross_z(mol) * osc_diag
            )
        r_s = (np.sqrt(complex(med.mu)) - np.sqrt(complex(med.eps))) / (
            np.sqrt(complex(med.mu)) + np.sqrt(complex(med.eps))
        )
        g_el = (
            c.mu0 * w**2 * _d_par_sq(mol) / (4.0 * np.pi * c.hbar * z)
            * (np.cos(arg) * r_s.imag + np.sin(arg) * r_s.real)
        )
        s = g_ch / (g_vac + g_el)
    elif limit is Limit.NONRETARDED:
        _warn_limit(limit, k0 * z)
        if not med.lossless:
            raise LosslessRequiredError("nonretarded closed forms require a lossless medium")
        refl = fresnel_nonretarded(med)
        if mol.isotropic:
            g_ch = float(np.real(
                -1j * w * rotatory_strength(mol) * refl.r_sp
                / (3.0 * np.pi * c.hbar * c.eps0 * c.c**2 * z**2)
            ))
        else:
            g_ch = float(np.real(
                -1j * c.mu0 * w / (4.0 * np.pi * c.hbar * z**2) * refl.r_sp * _d_full_plus_z(mol)
            )) - float(np.real(
                c.mu0 * w**2 / (4.0 * np.pi * c.c * c.hbar * z)
                * (refl.r_pp + refl.r_ss) * _im_cross_z(mol)
            ))
        g_el = gamma_el_halfspace_nonretarded(med, mol, z)
        s = g_ch / g_vac
    else:
        curl, img_g = _scatter_integrals(geom, lambda k_perp: planar_reflections(med, k_perp), w, spec)
        g_ch = gamma_ch_from_curl(curl, mol, Contraction.PLANAR_PAPER)
        g_el = gamma_el_from_img(img_g, mol)
        s = g_ch / (g_vac + g_el)
        method = Method.QUADRATURE

    return RateBreakdown(
        gamma_el=g_el,
        gamma_ch=g_ch,
        gamma_vac=g_vac,
        gamma_total=g_vac + g_el + g_ch,
        s_disc=s,
        method=method,
        assembly="vacuum + scattering (gamma_el is the scattering-only part)",
    )


def gamma_el_halfspace_nonretarded(med: MediumResponse, mol: TransitionDipoles, z_m: float) -> float:
    """Near-field electric scattering rate, driven by Im r_p = Im(eps)/|eps + 1|.

    Zero for lossless media (the medium must be lossy to absorb near-field
    energy). Kept in the published normalization, with |d . e_z|^2 for the
    z-weighting so the rate is real for complex dipoles.
    """
    c = CONSTANTS
    eps = complex(med.eps)
    im_rp = eps.imag / abs(eps + 1.0)
    if mol.isotropic:
        weight = 4.0 / 3.0 * mol.d_norm_sq
    else:
        weight = mol.d_norm_sq + abs(mol.d[2]) ** 2
    return weight * im_rp / (8.0 * c.hbar * np.pi * c.eps0 * mol.omega_ik**2 * z_m**3)


def s_halfspace(med: MediumResponse, mol: TransitionDipoles, z_m: float, limit: Limit) -> float:
    """Degree of discrimination in front of the chiral half-space.

    Retarded: the compact closed form
    (R/(w z |d|^2)) [(cos(2wz/c) - 1) Re r_sp + sin(2wz/c) Im r_sp], which
    approximates gamma_ch/(gamma_vac + gamma_el). Nonretarded: the exact
    quotient gamma_ch/gamma_vac = Re(-i c R r_sp)/(w^2 z^2 |d|^2); see
    ``s_halfspace_nonretarded_variant`` for the alternative sign convention.
    """
    if mol.d_norm_sq == 0:
        raise PhysicsError("degree of discrimination undefined for |d| = 0")
    w = mol.omega_ik
    r_ik = rotatory_strength(mol)
    if limit is Limit.RETARDED:
        refl = fresnel_retarded(med)
        arg = 2.0 * w * z_m / CONSTANTS.c
        osc = (np.cos(arg) - 1.0) * refl.r_sp.real + np.sin(arg) * refl.r_sp.imag
        return r_ik / (w * z_m * mol.d_norm_sq) * osc
    if limit is Limit.NONRETARDED:
        refl = fresnel_nonretarded(med)
        return float(np.real(
            -1j * CONSTANTS.c * r_ik * refl.r_sp / (w**2 * z_m**2 * mol.d_norm_sq)
        ))
    raise ValueError("s_halfspace closed forms exist for retarded/nonretarded limits only")


# ---------------------------------------------------------------------------
# Alternative published normalizations, retained for cross-checking. Each is
# pinned by a test to its own formula; their relation to the rate quotients
# above is documented where they differ.
# ---------------------------------------------------------------------------

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


def s_mirror_retarded(mol: TransitionDipoles, z_m: float, handedness: Handedness) -> float:
    """Far-field mirror discrimination +-(c R/(2 w^2 z^2 |d|^2)) sin(2wz/c);
    equals the exact quotient gamma_ch/gamma_vacuum of the closed forms."""
    c = CONSTANTS
    w = mol.omega_ik
    return (
        handedness.sign * c.c * rotatory_strength(mol) * np.sin(2.0 * w * z_m / c.c)
        / (2.0 * w**2 * z_m**2 * mol.d_norm_sq)
    )


def s_halfspace_nonretarded_variant(med: MediumResponse, mol: TransitionDipoles, z_m: float) -> float:
    """Near-field half-space discrimination in the alternative sign convention,
    Re(+i c R r_sp)/(w^2 z^2 |d|^2); the exact quotient has the opposite sign."""
    refl = fresnel_nonretarded(med)
    return float(np.real(
        1j * CONSTANTS.c * rotatory_strength(mol) * refl.r_sp
        / (mol.omega_ik**2 * z_m**2 * mol.d_norm_sq)
    ))
