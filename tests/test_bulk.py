import dataclasses

import numpy as np
import pytest

from chipurcell import (
    CONSTANTS,
    MediumResponse,
    TransitionDipoles,
    curl_img_g0_coincident,
    gamma_ch_bulk,
    gamma_ch_from_curl,
    gamma_el_bulk,
    gamma_vacuum,
    rates_bulk,
    rotatory_strength,
)
from chipurcell.errors import LosslessRequiredError, PhysicsError
from conftest import DEBYE, OMEGA, SMALL_KAPPA, SMALL_KAPPA_MEDIA, random_lossless_medium, random_molecule
from oracles import curl_g0_finite, richardson_rho2


class TestWaveNumbers:
    def test_vacuum(self):
        med = MediumResponse(1.0, 1.0, 0.0, CONSTANTS.c)  # omega = c -> k0 = 1
        assert med.k_plus == pytest.approx(1.0) and med.k_minus == pytest.approx(1.0)

    def test_direct_substitution(self):
        med = MediumResponse(4.0, 1.0, 0.1, CONSTANTS.c)
        assert med.k_minus == pytest.approx(2.1, rel=1e-14)
        assert med.k_plus == pytest.approx(1.9, rel=1e-14)

    def test_complex_draw_frozen(self):
        # principal-branch arithmetic, 40-digit cross-check
        med = MediumResponse(2 + 0.1j, 1.0, 0.01j, CONSTANTS.c)
        assert med.k_plus == pytest.approx(1.4146551592967945934 + 0.025344302582442994199j, rel=1e-14)
        assert med.k_minus == pytest.approx(1.4146551592967945934 + 0.045344302582442994615j, rel=1e-14)

    def test_sum_rule_and_degeneracy(self, rng):
        for _ in range(20):
            med = random_lossless_medium(rng)
            assert med.k_plus + med.k_minus == pytest.approx(2 * med.n_r * med.k0, rel=1e-12)
        med0 = MediumResponse(3.0, 1.2, 0.0, OMEGA)
        assert med0.k_plus == med0.k_minus


class TestFiniteSeparationCurl:
    def test_achiral_diagonal_cancellation(self):
        med = MediumResponse(2.25, 1.0, 0.0, OMEGA)
        m = curl_g0_finite(med, 5e-8)
        assert np.max(np.abs(np.diag(m))) < 1e-16 * np.max(np.abs(m))
        assert abs(m[0, 1]) > 0  # antisymmetric block survives

    def test_pole_at_zero_separation(self, medium_std):
        with pytest.raises(ZeroDivisionError):
            curl_g0_finite(medium_std, 0.0)

    def test_richardson_limit_matches_coincidence(self, medium_std):
        target = curl_img_g0_coincident(medium_std)[0, 0]
        rho0 = 0.05 / medium_std.k_minus.real
        extrap = richardson_rho2(lambda rho: curl_g0_finite(medium_std, rho).imag[0, 0], rho0)
        assert extrap.real == pytest.approx(target.real, rel=1e-8)

    def test_near_field_scalings(self, medium_std):
        """Assembled entries scale as 1/rho^2 (antisym) and 1/rho (Re diag);
        the per-mode prefactor scales as 1/rho^3 (mode sum cancels it)."""
        rho = 0.01 / medium_std.k_minus.real
        m1 = curl_g0_finite(medium_std, rho)
        m2 = curl_g0_finite(medium_std, rho / 2)
        assert abs(m2[0, 1] / m1[0, 1]) == pytest.approx(4.0, rel=0.01)
        assert m2[0, 0].real / m1[0, 0].real == pytest.approx(2.0, rel=0.01)
        # single-mode prefactor: exp(ik rho)(1 - ik rho)/rho^3 scale
        k_plus = medium_std.k_plus
        pref = lambda r: np.exp(1j * k_plus * r) * (1 - 1j * k_plus * r) / r**3
        assert abs(pref(rho / 2) / pref(rho)) == pytest.approx(8.0, rel=0.01)


class TestCoincidenceCurl:
    def test_achiral_zero(self):
        med = MediumResponse(5.0, 1.5, 0.0, OMEGA)
        assert np.all(curl_img_g0_coincident(med) == 0)

    def test_frozen_exact_value(self, medium_std):
        # mu (k+^3 - k-^3)/(6 pi (k+ + k-)), 40-digit evaluation
        kp, km = medium_std.k_plus, medium_std.k_minus
        expected = float(np.real((kp**3 - km**3) / (6 * np.pi * (kp + km))))
        m = curl_img_g0_coincident(medium_std)
        assert m[0, 0].real == pytest.approx(expected, rel=1e-14)
        assert np.max(np.abs(m.imag)) == 0.0

    def test_sign_for_right_handed_medium(self, medium_std):
        assert curl_img_g0_coincident(medium_std)[0, 0].real < 0

    def test_rejects_lossy(self):
        med = MediumResponse(2.25 + 0.01j, 1.0, 0.05, OMEGA)
        with pytest.raises(LosslessRequiredError):
            curl_img_g0_coincident(med)

    @pytest.mark.parametrize("eps, mu", [m for m in SMALL_KAPPA_MEDIA if not isinstance(m[0], complex)])
    @pytest.mark.parametrize("kappa", [k for k in SMALL_KAPPA if k])
    def test_small_kappa_dual_path(self, eps, mu, kappa, mol_iso):
        # the difference of cubes k+^3 - k-^3 was off by 3.6e-4 at kappa
        # 1e-12 (eps 12)
        med = MediumResponse(eps, mu, kappa, OMEGA)
        via = gamma_ch_from_curl(curl_img_g0_coincident(med), mol_iso)
        direct = gamma_ch_bulk(med, mol_iso)
        assert abs(via - direct) <= 1e-14 * abs(direct)

    def test_imaginary_index_gives_zero(self):
        # lossless with eps mu < 0: the complex form is imaginary, taken real
        assert np.all(curl_img_g0_coincident(MediumResponse(-2.25, 1.0, 0.05, OMEGA)) == 0)


class TestBulkRates:
    def test_achiral_and_nonchiral_molecule_zero(self, medium_std, mol_iso):
        med0 = MediumResponse(2.25, 1.0, 0.0, OMEGA)
        assert gamma_ch_bulk(med0, mol_iso) == 0.0
        real_mol = TransitionDipoles([DEBYE, 0, 0], [1e-23, 0, 0], OMEGA, isotropic=True)
        assert gamma_ch_bulk(medium_std, real_mol) == 0.0

    def test_frozen_value_and_dual_path(self, medium_std):
        # molecule with R = 1e-53 C A m^3; 40-digit closed-form value
        mol = TransitionDipoles([1.0, 0, 0], [-1e-53j, 0, 0], OMEGA, isotropic=True)
        assert rotatory_strength(mol) == pytest.approx(1e-53, rel=1e-14)
        g = gamma_ch_bulk(medium_std, mol)
        assert g == pytest.approx(-1709.8510056447781255, rel=1e-12)
        via = gamma_ch_from_curl(curl_img_g0_coincident(medium_std), mol)
        assert via == pytest.approx(g, rel=1e-10)

    def test_electric_vacuum_reduction(self, mol_aniso):
        med = MediumResponse(1.0, 1.0, 0.0, OMEGA)
        assert gamma_el_bulk(med, mol_aniso) == pytest.approx(gamma_vacuum(mol_aniso), rel=1e-14)

    def test_electric_index_scaling(self, mol_iso):
        med = MediumResponse(2.25, 1.0, 0.0, OMEGA)
        assert gamma_el_bulk(med, mol_iso) == pytest.approx(1.5 * gamma_vacuum(mol_iso), rel=1e-14)

    def test_zero_dipole(self, medium_std):
        mol = TransitionDipoles([0, 0, 0], [1e-23j, 0, 0], OMEGA)
        assert gamma_el_bulk(medium_std, mol) == 0.0

    def test_dual_path_identity_random_draws(self, rng):
        for _ in range(100):
            med = random_lossless_medium(rng)
            mol = random_molecule(rng, omega=med.omega, isotropic=bool(rng.random() < 0.5))
            direct = gamma_ch_bulk(med, mol)
            via = gamma_ch_from_curl(curl_img_g0_coincident(med), mol)
            assert via == pytest.approx(direct, rel=1e-10, abs=1e-280)

    def test_enantiomer_antisymmetry(self, rng):
        for _ in range(50):
            med = random_lossless_medium(rng)
            mol = random_molecule(rng, omega=med.omega)
            flipped = dataclasses.replace(med, kappa=-complex(med.kappa).real)
            assert gamma_ch_bulk(flipped, mol) == pytest.approx(-gamma_ch_bulk(med, mol), rel=1e-13, abs=1e-280)
            assert gamma_el_bulk(flipped, mol) == gamma_el_bulk(med, mol)


def compact_s(med, mol):
    """The paper's bulk quotient -6 kappa R/(c |d|^2) (1 + kappa^2/(3 n_r^2)),
    for an isotropic molecule in a lossless medium (mu cancels in it)."""
    kap = complex(med.kappa).real
    n_r = med.n_r.real
    return (-6 * kap * rotatory_strength(mol) / (CONSTANTS.c * mol.d_norm_sq)
            * (1 + kap**2 / (3 * n_r**2)))


class TestDiscrimination:
    def test_achiral_zero(self, mol_iso):
        med = MediumResponse(2.25, 1.0, 0.0, OMEGA)
        assert rates_bulk(med, mol_iso).s_disc == 0.0

    def test_odd_in_kappa(self, medium_std, mol_iso):
        flipped = dataclasses.replace(medium_std, kappa=-0.05)
        assert rates_bulk(flipped, mol_iso).s_disc == pytest.approx(
            -rates_bulk(medium_std, mol_iso).s_disc, rel=1e-14)

    def test_quotient_identity(self, rng):
        for _ in range(30):
            med = random_lossless_medium(rng)
            mol = random_molecule(rng, omega=med.omega, isotropic=True)
            s = rates_bulk(med, mol).s_disc
            assert s == gamma_ch_bulk(med, mol) / gamma_el_bulk(med, mol)
            assert s == pytest.approx(compact_s(med, mol), rel=1e-12, abs=1e-280)

    def test_compact_form_at_its_accuracy(self, medium_std, mol_iso):
        # -6 kappa R/(c |d|^2) is the quotient up to the kappa^2/(3 n_r^2) factor
        kap, n_r = 0.05, 1.5
        compact = -6 * kap * rotatory_strength(mol_iso) / (CONSTANTS.c * mol_iso.d_norm_sq)
        s = rates_bulk(medium_std, mol_iso).s_disc
        assert s == pytest.approx(compact * (1 + kap**2 / (3 * n_r**2)), rel=1e-13)
        assert abs(s - compact) <= 1.01 * abs(compact) * kap**2 / (3 * n_r**2)

    def test_bounded_for_physical_draws(self, rng):
        for _ in range(50):
            med = random_lossless_medium(rng)
            mol = random_molecule(rng, omega=med.omega, isotropic=True)
            if mol.d_norm_sq == 0:
                continue
            s = rates_bulk(med, mol).s_disc
            compact = -6 * complex(med.kappa).real * rotatory_strength(mol) / (CONSTANTS.c * mol.d_norm_sq)
            if abs(compact) < 1.0:
                assert -1.0 <= s <= 1.0 or abs(s) < 1.05 * abs(compact)

    def test_zero_dipole_error(self, medium_std):
        mol = TransitionDipoles([0, 0, 0], [1e-23j, 0, 0], OMEGA)
        with pytest.raises(PhysicsError, match="non-discriminating rate is zero"):
            rates_bulk(medium_std, mol)

    def test_magnitude_diagnostic_logged(self, medium_std, capsys):
        """Order of magnitude: |S| ~ 6 alpha kappa for |m| ~ alpha c |d| / 2."""
        alpha = 7.2973525693e-3
        d = DEBYE
        m_mag = alpha * CONSTANTS.c * d / 2.0
        mol = TransitionDipoles([d, 0, 0], [-1j * m_mag, 0, 0], OMEGA, isotropic=True)
        s = rates_bulk(medium_std, mol).s_disc
        scale = 6 * alpha * 0.05
        print(f"diagnostic: |S| = {abs(s):.3e}, 6 alpha kappa scale = {scale:.3e}")
        # logged order-of-magnitude check only: same decade as the 6 alpha kappa scale
        assert scale / 4 < abs(s) < scale * 4


def test_rates_bulk_assembly(medium_std, mol_iso):
    b = rates_bulk(medium_std, mol_iso)
    assert b.gamma_total == b.gamma_el + b.gamma_ch
    assert b.s_disc == b.gamma_ch / b.gamma_el
    assert b.s_disc == pytest.approx(compact_s(medium_std, mol_iso), rel=1e-13)
    assert b.gamma_vac == pytest.approx(gamma_vacuum(mol_iso), rel=1e-14)
