import dataclasses

import numpy as np
import pytest

from chipurcell import (
    MediumResponse,
    fresnel_nonretarded,
    fresnel_retarded,
    planar_reflections,
)
from chipurcell.errors import PoleError
from conftest import DUALITY_MEDIA, OMEGA, reflections_at
from oracles import chiral_reflections, polarization_vectors, textbook_fresnel


class TestPolarizationVectors:
    def test_normal_incidence(self):
        wg = polarization_vectors(0.0, 1.0)
        assert np.linalg.norm(wg.e_p_plus) == pytest.approx(1.0, rel=1e-14)
        assert np.linalg.norm(wg.e_p_minus) == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(wg.e_s, [0.0, -1.0, 0.0])  # e_x x e_z

    def test_grazing(self):
        wg = polarization_vectors(1.0, 1.0)
        assert np.allclose(wg.e_p_plus, [0, 0, 1])
        assert np.allclose(wg.e_p_minus, [0, 0, 1])
        assert wg.k_perp == 0.0

    def test_evanescent_branch(self):
        wg = polarization_vectors(2.0, 1.0)
        assert wg.k_perp == pytest.approx(1j * np.sqrt(3.0), rel=1e-14)
        assert wg.k_perp.imag > 0

    def test_wavevector_identity(self):
        for kpar in (0.0, 0.4, 0.99, 1.7):
            wg = polarization_vectors(kpar, 1.0)
            assert wg.k_par**2 + wg.k_perp**2 == pytest.approx(1.0, rel=1e-12)

    def test_transversality(self):
        for kpar in (0.0, 0.3, 0.8):
            wg = polarization_vectors(kpar, 1.0, azimuth=0.6)
            k_up = np.array([kpar * np.cos(0.6), kpar * np.sin(0.6), wg.k_perp])
            assert abs(np.dot(wg.e_p_plus, k_up)) < 1e-14
            assert abs(np.dot(wg.e_s, k_up)) < 1e-14


class TestGeneralCoefficients:
    def test_achiral_reduces_to_textbook(self):
        med = MediumResponse(2.25, 1.0, 0.0, OMEGA)
        k0 = med.k0
        for x in (0.0, 0.25, 0.5, 0.77, 0.9, 0.99):
            r_ss, r_pp, r_sp = reflections_at(med, x * k0)
            r_s, r_p = textbook_fresnel(2.25, 1.0, k0, x * k0)
            assert r_ss == pytest.approx(r_s, rel=1e-12, abs=1e-15)
            assert r_pp == pytest.approx(r_p, rel=1e-12, abs=1e-15)
            assert abs(r_sp) < 1e-14

    def test_achiral_magnetic_textbook(self):
        med = MediumResponse(3.0, 1.8, 0.0, OMEGA)
        k0 = med.k0
        for x in (0.1, 0.6, 0.95):
            r_ss, r_pp, _ = reflections_at(med, x * k0)
            r_s, r_p = textbook_fresnel(3.0, 1.8, k0, x * k0)
            assert r_ss == pytest.approx(r_s, rel=1e-12)
            assert r_pp == pytest.approx(r_p, rel=1e-12)

    def test_energy_bound_lossless_propagating(self, rng):
        for _ in range(200):
            med = MediumResponse(
                float(rng.uniform(1.1, 6.0)),
                float(rng.uniform(0.6, 1.8)),
                float(rng.uniform(-0.2, 0.2)),
                OMEGA,
            )
            x = float(rng.uniform(0.0, 0.999))
            r_ss, r_pp, r_sp = reflections_at(med, x * med.k0)
            assert abs(r_ss) ** 2 + abs(r_sp) ** 2 <= 1.0 + 1e-12  # |r_ps| = |r_sp|
            assert abs(r_pp) ** 2 + abs(r_sp) ** 2 <= 1.0 + 1e-12

    def test_large_kpar_limit_matches_near_field_set(self, medium_std):
        r_inf = reflections_at(medium_std, 1e5 * medium_std.k0)
        r_nr = fresnel_nonretarded(medium_std)
        for a, b in zip(r_inf, r_nr):
            assert abs(a - b) <= 1e-6 * abs(b)

    def test_cross_channel_odd_in_kappa(self, medium_std):
        flipped = dataclasses.replace(medium_std, kappa=-0.05)
        k = 0.6 * medium_std.k0
        r_ss, _, r_sp = reflections_at(medium_std, k)
        f_ss, _, f_sp = reflections_at(flipped, k)
        assert f_sp == pytest.approx(-r_sp, rel=1e-13)
        assert f_ss == pytest.approx(r_ss, rel=1e-13)

    @pytest.mark.parametrize("eps, mu, kappa", DUALITY_MEDIA)
    def test_duality_exchanges_the_diagonal_and_keeps_the_cross(self, eps, mu, kappa):
        """Swapping eps and mu exchanges r_ss with r_pp and keeps r_sp, on
        the real segment, the imaginary axis and the steepest-descent path."""
        tail = np.logspace(-3, 3, 50)
        x = np.concatenate([np.linspace(0.01, 1.0, 50), 1j * tail, 1.0 + 1j * tail])
        med = MediumResponse(eps, mu, kappa, OMEGA)
        r_ss, r_pp, r_sp = planar_reflections(med, x * med.k0)
        d_ss, d_pp, d_sp = planar_reflections(MediumResponse(mu, eps, kappa, OMEGA), x * med.k0)
        for r, d in ((r_ss, d_pp), (r_pp, d_ss), (r_sp, d_sp)):
            assert np.all(np.abs(d - r) <= 1e-15 * np.maximum(1.0, np.abs(r)))


class TestGrazingIncidence:
    """Reflections near k_perp = 0, where going through k_par loses k_perp."""

    @pytest.mark.parametrize("w", [1e-5, 1e-7, 1e-9, 1e-7j])
    @pytest.mark.parametrize(
        "eps, kappa", [(2.25, 0.05), (2.25 + 0.1j, 0.05 + 0.001j)], ids=["lossless", "absorbing"]
    )
    def test_matches_impedance_form_oracle(self, eps, kappa, w):
        med = MediumResponse(eps, 1.0, kappa, OMEGA)
        k_perp = w * med.k0
        got = planar_reflections(med, np.array([k_perp]))
        want = chiral_reflections(eps, 1.0, kappa, med.k0, k_perp)
        scale = max(abs(r) for r in want)
        for g, r in zip(got, want):
            assert abs(g[0] - r) <= 1e-12 * scale

    def test_exact_pole_is_not_finite(self, medium_std):
        r_ss, r_pp, r_sp = planar_reflections(medium_std, np.array([0.0, 0.5 * medium_std.k0]))
        assert not np.isfinite([r_ss[0], r_pp[0], r_sp[0]]).any()
        assert np.isfinite([r_ss[1], r_pp[1], r_sp[1]]).all()


class TestNearFieldSet:
    def test_vacuum_reflects_nothing(self):
        r_ss, r_pp, r_sp = fresnel_nonretarded(MediumResponse(1.0, 1.0, 0.0, OMEGA))
        assert r_ss == 0.0 and r_pp == 0.0 and r_sp == 0.0

    def test_kappa_parity(self, medium_std):
        r_ss, r_pp, r_sp = fresnel_nonretarded(medium_std)
        f_ss, f_pp, f_sp = fresnel_nonretarded(dataclasses.replace(medium_std, kappa=-0.05))
        assert f_sp == pytest.approx(-r_sp, rel=1e-14)
        assert f_ss == pytest.approx(r_ss, rel=1e-14)
        assert f_pp == pytest.approx(r_pp, rel=1e-14)

    def test_lossless_cross_channel_purely_imaginary(self, medium_std):
        r_sp = fresnel_nonretarded(medium_std)[2]
        assert r_sp.real == 0.0
        assert r_sp.imag == pytest.approx(2 * 0.05 / (2.25 - 0.0025 + 2.25 + 1 + 1), rel=1e-14)

    def test_pole(self):
        # eps mu - kappa^2 + eps + mu + 1 = 0 at eps = -1, mu = 1, kappa = 0
        with pytest.raises(PoleError):
            fresnel_nonretarded(MediumResponse(-1.0, 1.0, 0.0, OMEGA))


class TestFarFieldSet:
    def test_lossless_cross_channel_vanishes(self, medium_std):
        assert fresnel_retarded(medium_std)[2] == 0.0

    def test_achiral_normal_incidence(self):
        med = MediumResponse(2.25, 1.0, 0.0, OMEGA)
        r_ss, r_pp, r_sp = fresnel_retarded(med)
        r_s = (np.sqrt(1.0) - np.sqrt(2.25)) / (np.sqrt(1.0) + np.sqrt(2.25))
        assert r_ss == pytest.approx(r_s, rel=1e-12)
        assert r_pp == pytest.approx(-r_ss, rel=1e-12)
        assert abs(r_sp) < 1e-14

    def test_frozen_complex_draw(self):
        # 40-digit evaluation at eps = 2.25+0.1i, mu = 1, kappa = 0.01+0.002i
        med = MediumResponse(2.25 + 0.1j, 1.0, 0.01 + 0.002j, OMEGA)
        r_ss, r_pp, r_sp = fresnel_retarded(med)
        assert r_sp == pytest.approx(0.00056860120209508550189 - 2.5288591840687544017e-6j, rel=1e-12)
        assert r_ss == pytest.approx(-0.20023672410711891784 - 3.7966545580732411476e-6j, rel=1e-12)
        assert r_pp == pytest.approx(0.20033151245356060414 + 0.021316477119680765114j, rel=1e-12)
