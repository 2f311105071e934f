"""Independent validation of the azimuth-reduced scattering kernels.

The numeric pathway integrates radial kernels obtained by performing the
azimuthal k-space integral analytically. These tests rebuild the full
pre-reduction tensor integrands from the polarization vectors at many
azimuths, integrate over the azimuth numerically, and compare against the
reduced structures actually used:

  curl kernel:  -pi { r_sp [(1 - W^2)(xx + yy) + 2 K^2 zz]
                      + W (r_ss - r_pp)(xy - yx) }
  G kernel:     +pi { (r_ss - W^2 r_pp)(xx + yy) + 2 K^2 r_pp zz }

with W = k_perp/k0 and K = k_par/k0. In particular this pins the
antisymmetric channel to the *difference* of the diagonal reflections.
"""

import numpy as np
import pytest

from chipurcell import MediumResponse, planar_reflections
from conftest import OMEGA
from oracles import polarization_vectors


def _full_tensors(k_par, k0, refl, n_phi=720):
    """Azimuth integrals of the raw reflected-wave tensors.

    Returns (curl_part, g_part): integral over phi of
    e_kup x [sum r_ab e_a+ (x) e_b-] and of [sum r_ab e_a+ (x) e_b-], with
    ``refl`` = (r_ss, r_pp, r_sp) and r_ps = -r_sp.
    """
    r_ss, r_pp, r_sp = refl
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    curl_acc = np.zeros((3, 3), dtype=complex)
    g_acc = np.zeros((3, 3), dtype=complex)
    for phi in phis:
        wg = polarization_vectors(k_par, k0, azimuth=phi)
        e_kup = np.array([
            k_par * np.cos(phi) / k0, k_par * np.sin(phi) / k0, wg.k_perp / k0,
        ])
        bracket = (
            r_ss * np.outer(wg.e_s, wg.e_s)
            + r_sp * np.outer(wg.e_s, wg.e_p_minus)
            - r_sp * np.outer(wg.e_p_plus, wg.e_s)
            + r_pp * np.outer(wg.e_p_plus, wg.e_p_minus)
        )
        g_acc += bracket
        curl_acc += np.cross(e_kup, bracket, axisa=0, axisb=0, axisc=0)
    dphi = 2 * np.pi / n_phi
    return curl_acc * dphi, g_acc * dphi


def _reduced_curl(k_par, k0, refl, k_perp):
    r_ss, r_pp, r_sp = refl
    w = k_perp / k0
    k2 = k_par**2 / k0**2
    diag = np.diag([1.0 - w * w, 1.0 - w * w, 2.0 * k2]).astype(complex)
    asym = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return -np.pi * (r_sp * diag + w * (r_ss - r_pp) * asym)


def _reduced_g(k_par, k0, refl, k_perp):
    r_ss, r_pp, _ = refl
    w2 = k_perp**2 / k0**2
    k2 = k_par**2 / k0**2
    return np.pi * np.diag([r_ss - w2 * r_pp, r_ss - w2 * r_pp, 2.0 * k2 * r_pp]).astype(complex)


@pytest.mark.parametrize("x", [0.0, 0.35, 0.8, 0.97, 1.5, 4.0])
def test_reduction_matches_full_azimuth_integral(x):
    med = MediumResponse(2.25, 1.0, 0.05, OMEGA)
    k0 = med.k0
    k_par = x * k0
    k_perp = np.sqrt(complex(k0**2 - k_par**2))
    if k_perp.imag < 0:
        k_perp = -k_perp
    refl = tuple(complex(r) for r in planar_reflections(med, k_perp))
    curl_full, g_full = _full_tensors(k_par, k0, refl)
    curl_red = _reduced_curl(k_par, k0, refl, k_perp)
    g_red = _reduced_g(k_par, k0, refl, k_perp)
    scale = max(np.max(np.abs(curl_red)), 1e-30)
    assert np.max(np.abs(curl_full - curl_red)) <= 1e-10 * scale
    gscale = max(np.max(np.abs(g_red)), 1e-30)
    assert np.max(np.abs(g_full - g_red)) <= 1e-10 * gscale


def test_antisymmetric_channel_tracks_difference_of_diagonals():
    """With r_sp = 0 and r_ss = -r_pp = 1 the curl integrand is purely the
    antisymmetric block with weight 2 W; the sum convention would null it."""
    med = MediumResponse(2.25, 1.0, 0.0, OMEGA)
    k0 = med.k0
    k_par = 0.5 * k0
    k_perp = np.sqrt(k0**2 - k_par**2)

    curl_full, _ = _full_tensors(k_par, k0, (1.0, -1.0, 0.0))
    asym = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    expected = -np.pi * (k_perp / k0) * 2.0 * asym
    assert np.max(np.abs(curl_full - expected)) <= 1e-10
    # equal diagonal reflections instead produce no antisymmetric curl at all
    curl_full2, _ = _full_tensors(k_par, k0, (1.0, 1.0, 0.0))
    assert np.max(np.abs(curl_full2)) <= 1e-12
