"""The ledger of published-versus-exact discrepancies: each published form
that differs from the package's master-formula contraction, and the cavity's
two routes to the chiral rate. Each printed formula is written once, here,
outside the runtime package. Isotropic molecule unless noted; R = Im(d . m*),
s = 2 w z/c, right-handed mirror, lossless medium eps 2.25, mu 1, kappa 0.05.

row  published form                     compared with                      pinned relation, bound      range
1    mu0 |d_par|^2 sin s/(8 pi hbar z)  rates_mirror RETARDED gamma_el     printed = exact/w^2, 1e-12  k0 z 12
2    +-mu0 c R/(8 pi hbar z^3)          rates_mirror NONRETARDED gamma_ch  = (3/4) exact, 1e-13        k0 z 0.01
3    +-3 c^2 R/(w^3 z^3 |d|^2)          rates_mirror NONRETARDED s_disc    = 6 exact, 1e-12            k0 z 0.01
4    Re(+i c R r_sp)/(w^2 z^2 |d|^2)    rates_halfspace NONRETARDED s_disc = -exact, 1e-13             k0 z 0.01
5    retarded mirror: curl xx, yy only  rates_mirror RETARDED gamma_ch,    blind to d_z and m_z,       k0 z 15
                                        anisotropic molecule               exactly
6    nonretarded half-space, 1/z^2      rates_halfspace NUMERIC gamma_ch   |exact| < 0.05 |printed|    k0 z 0.01
7    retarded half-space curl x-y,      rates_halfspace NUMERIC gamma_ch,  agreement to 10% fails      absorbing,
     driven by r_ss + r_pp              d along x, m along i y             (strict xfail)              k0 z 30-3000
8    Contraction.PLANAR_PAPER           the same curl under BULK_LOCKED    symmetric part -1,          any real curl
                                                                           antisymmetric +1, 1e-12
9    rational f0 of f_factors           mode-resolved f0_main              4/9 against 10/9, 1e-12     vacuum
10   absorbing gamma_ch_lfc             BULK_LOCKED contraction of the     |ratio| = 1 to 1e-9,        20 hosts, k0 a
                                        1/a^3 term of curl_img_lfc         sign -1                     1e-4
11   lossless gamma_ch_lfc              BULK_LOCKED contraction of         -6 n_r/(mu (3 n_r^2 +       a = 1 nm
                                        curl_img_lfc                       kappa^2)), 1e-12

Checks: rows 1-4 ``test_printed_form_is_a_factor_of_the_exact``; 5
``test_far_field_rate_ignores_z_dipoles``; 6
``test_near_field_closed_form_is_extrapolation_not_integral`` and acceptance
criterion 8c (a strict xfail: agreement to 3%); 7
``test_retarded_cross_entry_is_the_far_field_limit``; 8
``test_orderings_differ_by_symmetric_sign``; 9 and 10 acceptance criterion 11;
11 ``test_cavity_routes_differ_by_a_rational_factor``.
"""

import numpy as np
import pytest

from chipurcell import (
    CONSTANTS as C, CavityConfig, Contraction, Handedness, Limit, MediumResponse, PlanarGeometry, TransitionDipoles,
    curl_img_lfc, fresnel_nonretarded, gamma_ch_from_curl, gamma_ch_lfc, rates_halfspace, rates_mirror,
    rotatory_strength,
)
from conftest import DEBYE, OMEGA as W, quiet
from oracles import ORACLE_MEDIA

K0 = W / C.c
LOSSLESS = MediumResponse(2.25, 1.0, 0.05, W)


def mirror(z):
    return PlanarGeometry(z_m=z, handedness=Handedness.RIGHT)


# rows 1-4: k0 z, the printed form, the exact quantity, factor and bound, with
# printed = factor x exact; |d_par|^2 of the isotropic molecule is (2/3) |d|^2
PRINTED = {
    "mirror-far-electric": (
        12.0, lambda mol, z: C.mu0 * 2 / 3 * mol.d_norm_sq * np.sin(2 * W * z / C.c) / (8 * np.pi * C.hbar * z),
        lambda mol, z: rates_mirror(mirror(z), mol, Limit.RETARDED).gamma_el, 1 / W**2, 1e-12),
    "mirror-near-rate": (
        0.01, lambda mol, z: C.mu0 * C.c * rotatory_strength(mol) / (8 * np.pi * C.hbar * z**3),
        lambda mol, z: rates_mirror(mirror(z), mol, Limit.NONRETARDED).gamma_ch, 3 / 4, 1e-13),
    "mirror-near-discrimination": (
        0.01, lambda mol, z: 3 * C.c**2 * rotatory_strength(mol) / (W**3 * z**3 * mol.d_norm_sq),
        lambda mol, z: rates_mirror(mirror(z), mol, Limit.NONRETARDED).s_disc, 6.0, 1e-12),
    "halfspace-near-discrimination": (
        0.01, lambda mol, z: (1j * C.c * rotatory_strength(mol) * fresnel_nonretarded(LOSSLESS)[2]).real
        / (W**2 * z**2 * mol.d_norm_sq),
        lambda mol, z: rates_halfspace(PlanarGeometry(z_m=z, medium=LOSSLESS), mol, Limit.NONRETARDED).s_disc,
        -1.0, 1e-13),
}


@pytest.mark.parametrize("row", list(PRINTED))
def test_printed_form_is_a_factor_of_the_exact(mol_iso, row):
    k0z, printed, exact, factor, bound = PRINTED[row]
    assert printed(mol_iso, k0z / K0) == pytest.approx(factor * quiet(exact, mol_iso, k0z / K0), rel=bound)


def test_far_field_rate_ignores_z_dipoles(mol_aniso):  # row 5
    d, m = mol_aniso.d.copy(), mol_aniso.m.copy()
    d[2] *= 3.7
    m[2] += 5e-24j
    base, pert = (quiet(rates_mirror, mirror(15.0 / K0), mol, Limit.RETARDED).gamma_ch
                  for mol in (mol_aniso, TransitionDipoles(d, m, W)))
    assert pert == base


def test_near_field_closed_form_is_extrapolation_not_integral(mol_iso):  # row 6
    # the exact lossless chiral response stays bounded as z -> 0
    geom = PlanarGeometry(z_m=0.01 / K0, medium=LOSSLESS)
    closed = quiet(rates_halfspace, geom, mol_iso, Limit.NONRETARDED)
    assert abs(rates_halfspace(geom, mol_iso, Limit.NUMERIC).gamma_ch) < 0.05 * abs(closed.gamma_ch)


@pytest.mark.xfail(strict=True, reason=(
    "documented gap of the far-field half-space closed form: its curl x-y is driven by "
    "r_ss + r_pp, which vanishes at normal incidence for every medium, while the exact "
    "channel carries r_ss - r_pp; measured x-y entries (1/m^2), numeric vs closed: "
    "-2.47e10 vs 4.26e8 at k0 z = 30, -2.66e9 vs -6.89e6 at 300, 2.46e8 vs 6.11e6 at 3000"
))
def test_retarded_cross_entry_is_the_far_field_limit():  # row 7
    med = MediumResponse(*ORACLE_MEDIA["absorbing"], W)
    mol = TransitionDipoles([DEBYE, 0, 0], [0, 1e-23j, 0], W)  # the chiral rate is curl x-y's alone
    for k0z in (30.0, 300.0, 3000.0):
        geom = PlanarGeometry(z_m=k0z / K0, medium=med)
        numeric = rates_halfspace(geom, mol, Limit.NUMERIC)
        assert rates_halfspace(geom, mol, Limit.RETARDED).gamma_ch == pytest.approx(numeric.gamma_ch, rel=0.1)


def test_orderings_differ_by_symmetric_sign(rng, mol_aniso):  # row 8
    sym, asym = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    for t, rel_sign in ((sym + sym.T, -1.0), (asym - asym.T, 1.0)):
        a = gamma_ch_from_curl(t, mol_aniso, Contraction.BULK_LOCKED)
        b = gamma_ch_from_curl(t, mol_aniso, Contraction.PLANAR_PAPER)
        assert a == pytest.approx(rel_sign * b, rel=1e-12)


@pytest.mark.parametrize("eps, mu", [(1.0, 1.0), (2.25, 1.0), (4.0, 1.0), (2.25, 2.0)])
def test_cavity_routes_differ_by_a_rational_factor(mol_iso, eps, mu):  # row 11
    """The f0 term of ``curl_img_lfc`` is kappa k0^2 f0/pi, with no n_r or mu
    in it; ``gamma_ch_lfc`` scales the bulk rate, whose curl is
    -mu kappa k0^2 (3 n_r^2 + kappa^2)/(6 pi n_r). About -2.00, -1.333,
    -1.000 and -0.471 here."""
    cav = CavityConfig(1e-9, MediumResponse(eps, mu, 0.05, W))
    via_curl = gamma_ch_from_curl(curl_img_lfc(cav), mol_iso, Contraction.BULK_LOCKED)
    n_r = cav.host.n_r.real
    quotient = -6.0 * n_r / (mu * (3.0 * n_r**2 + 0.05**2))
    assert via_curl / gamma_ch_lfc(cav, mol_iso) == pytest.approx(quotient, rel=1e-12)
