import numpy as np
import pytest

from chipurcell import (
    CONSTANTS,
    CavityConfig,
    Contraction,
    CurlGreens,
    MediumResponse,
    curl_img_lfc,
    f0_main,
    f_factors,
    gamma_ch_bulk,
    gamma_ch_from_curl,
    gamma_ch_lfc,
    gamma_ch_lfc_absorbing,
    gamma_el_bulk,
    gamma_el_lfc,
    rates_lfc,
    rotatory_strength,
    s_bulk,
    s_lfc,
)
from chipurcell.errors import LosslessRequiredError, PoleError, RadiusTooLargeError
from chipurcell import onsager
from chipurcell.onsager import DegenerateKappaWarning
from conftest import OMEGA
from oracles import solve_cavity_coefficients


def random_complex_medium(rng, omega=OMEGA, kappa_scale=0.05):
    return MediumResponse(
        eps=complex(rng.uniform(1.2, 4.0), rng.uniform(0.01, 0.8)),
        mu=complex(rng.uniform(0.7, 1.6), rng.uniform(0.0, 0.15)),
        kappa=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * kappa_scale,
        omega=omega,
    )


class TestFFactors:
    def test_vacuum_values(self):
        f = f_factors(MediumResponse(1.0, 1.0, 0.0, OMEGA))
        assert f.f0 == pytest.approx(4.0 / 9.0, rel=1e-14)
        assert f.f3 == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_frozen_values(self, medium_std):
        # 40-digit evaluations at eps = 2.25, mu = 1
        f = f_factors(medium_std)
        assert f.f0 == pytest.approx(0.77169421487603305785, rel=1e-13)
        assert f.f1 == pytest.approx(0.34159779614325068871, rel=1e-13)
        assert f.f3 == pytest.approx(0.090909090909090909091, rel=1e-13)

    def test_cavity_prefactor_identity(self, rng):
        """kappa c f3/(pi a^3 w) == 3 kappa/(2 pi a^3 k0 (2mu+1)(2eps+1)),
        via mu + 2 n_r^2 = mu (2 eps + 1)."""
        for _ in range(50):
            med = random_complex_medium(rng)
            a = 1e-9
            f3 = f_factors(med).f3
            lhs = complex(med.kappa) * CONSTANTS.c * f3 / (np.pi * a**3 * med.omega)
            rhs = 3.0 * complex(med.kappa) / (
                2 * np.pi * a**3 * med.k0 * (2 * complex(med.mu) + 1) * (2 * complex(med.eps) + 1)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_pole(self):
        with pytest.raises(PoleError):
            f_factors(MediumResponse(1.0, -0.5, 0.0, OMEGA))


class TestF0Main:
    def test_small_kappa_limit(self):
        med = MediumResponse(2.0, 1.0, 0.0, OMEGA)
        n_r = med.n_r
        f_em = (3 * 2.0 / 5.0) * (3.0 / 3.0)
        f_k = 9 * np.sqrt(2.0) * (4 * 2.0 - 1) / (25.0 * 9.0)
        assert f_em == pytest.approx(1.2)
        with pytest.warns(DegenerateKappaWarning):
            val = f0_main(med)
        assert val == pytest.approx(f_em + f_k * n_r / 3.0, rel=1e-13)

    def test_vacuum_limit_value(self):
        # the two normalizations genuinely disagree: 10/9 here vs 4/9 above
        med = MediumResponse(1.0, 1.0, 0.0, OMEGA)
        with pytest.warns(DegenerateKappaWarning):
            assert f0_main(med) == pytest.approx(10.0 / 9.0, rel=1e-13)

    def test_frozen_value(self, medium_std):
        assert f0_main(medium_std) == pytest.approx(1.4262073122596161201, rel=1e-13)


class TestCavityCoefficients:
    def test_vacuum_host_kills_w_channel(self):
        from chipurcell import onsager_coefficients

        cav = CavityConfig(1e-9, MediumResponse(1.0, 1.0, 0.0, OMEGA))
        co = onsager_coefficients(cav)
        assert co.a0w == 0.0

    def test_kappa_flip_relation(self, rng):
        from chipurcell import onsager_coefficients

        for _ in range(50):
            med = random_complex_medium(rng)
            cav = CavityConfig(float(rng.uniform(0.3, 3.0)) * 1e-9, med)
            co = onsager_coefficients(cav)
            flipped = CavityConfig(cav.radius_a, med.with_kappa(-complex(med.kappa)))
            co_f = onsager_coefficients(flipped)
            assert co.b0v == co_f.a0w
            assert co.b0w == co_f.a0v

    def test_frozen_complex_draw(self):
        # eps = 2.25 + 0.1i, mu = 1, kappa = 0.01, a = 1 nm, w = 3e15 (40-digit eval)
        from chipurcell import onsager_coefficients

        med = MediumResponse(2.25 + 0.1j, 1.0, 0.01, 3e15)
        co = onsager_coefficients(CavityConfig(1e-9, med))
        assert co.a0v == pytest.approx(1465678883315149443.1 - 34675839098125358021.0j, rel=1e-13)
        assert co.a0w == pytest.approx(-1484230752746083431.7 + 34118790611183555982.0j, rel=1e-13)

    def test_boundary_solve_oracle(self):
        """Closed forms match a direct numeric solve of the n=1 matching system."""
        from chipurcell import onsager_coefficients

        k0 = OMEGA / CONSTANTS.c
        a = 3e-3 / k0  # deep small-radius regime; truncation ~ (k0 a)^4
        draws = [
            (2.25, 1.0, 0.0),
            (2.0 + 0.3j, 1.2 - 0.05j, (2 + 1j) * 1e-6),
            (1.5 + 0.33j, 1.28 + 0.05j, (1 - 2j) * 1e-6),
        ]
        for eps, mu, kap in draws:
            med = MediumResponse(eps, mu, kap, OMEGA)
            co = onsager_coefficients(CavityConfig(a, med))
            a_v, a_w = solve_cavity_coefficients(eps, mu, kap, k0, a)
            assert abs(a_v - co.a0v) / abs(co.a0v) < 1e-8
            assert abs(a_w - co.a0w) / abs(co.a0w) < 1e-8

    def test_boundary_solve_kappa_derivative(self):
        """The kappa-linear block of a0v matches the solve's kappa response."""
        from chipurcell import onsager_coefficients

        k0 = OMEGA / CONSTANTS.c
        a = 3e-3 / k0
        med0 = MediumResponse(2.0 + 0.2j, 1.1, 0.0, OMEGA)
        dk = 1e-6
        sp, _ = solve_cavity_coefficients(med0.eps, med0.mu, +dk, k0, a)
        sm, _ = solve_cavity_coefficients(med0.eps, med0.mu, -dk, k0, a)
        d_solve = (sp - sm) / (2 * dk)
        c1 = onsager_coefficients(CavityConfig(a, med0.with_kappa(1.0))).a0v
        c0 = onsager_coefficients(CavityConfig(a, med0)).a0v
        assert abs(d_solve - (c1 - c0)) / abs(c1 - c0) < 1e-6


class TestCorrectedCurl:
    def test_real_parameters_keep_only_order_one_term(self, medium_std):
        cav = CavityConfig(1e-9, medium_std)
        m = curl_img_lfc(cav).matrix
        expected = 0.05 * OMEGA**2 * f_factors(medium_std).f0.real / (np.pi * CONSTANTS.c**2)
        assert m[0, 0].real == pytest.approx(expected, rel=1e-13)

    def test_achiral_zero(self):
        cav = CavityConfig(1e-9, MediumResponse(2.25, 1.0, 0.0, OMEGA))
        assert np.all(curl_img_lfc(cav).matrix == 0)

    def test_small_radius_asymptote(self):
        """1/a^3 term dominates for complex parameters: ratio -> 1 at k0 a = 1e-4."""
        med = MediumResponse(2.25 + 0.4j, 1.0 + 0.05j, 0.03 + 0.01j, OMEGA)
        a = 1e-4 / med.k0
        cav = CavityConfig(a, med)
        full = curl_img_lfc(cav).matrix[0, 0].real
        lead = np.imag(
            3 * complex(med.kappa)
            / (2 * np.pi * a**3 * med.k0 * (2 * complex(med.mu) + 1) * (2 * complex(med.eps) + 1))
        )
        assert full / lead == pytest.approx(1.0, abs=1e-3)

    def test_radius_guard(self, medium_std):
        big = CavityConfig(0.2 / medium_std.k0, medium_std)
        with pytest.raises(RadiusTooLargeError):
            curl_img_lfc(big)


class TestCorrectedRates:
    def test_forced_unity_factor(self, medium_std, mol_iso, monkeypatch):
        # f0 = 1 recovers the uncorrected rate exactly: no other term enters
        monkeypatch.setattr(onsager, "_f0", lambda med, f0_source: 1.0)
        cav = CavityConfig(1e-9, medium_std)
        assert gamma_ch_lfc(cav, mol_iso) == gamma_ch_bulk(medium_std, mol_iso)

    def test_achiral_zero(self, mol_iso):
        cav = CavityConfig(1e-9, MediumResponse(2.25, 1.0, 0.0, OMEGA))
        assert gamma_ch_lfc(cav, mol_iso) == 0.0

    def test_correction_ratio(self, medium_std, mol_iso):
        cav = CavityConfig(1e-9, medium_std)
        ratio = gamma_ch_lfc(cav, mol_iso) / gamma_ch_bulk(medium_std, mol_iso)
        assert ratio == pytest.approx(f_factors(medium_std).f0.real, rel=1e-12)

    def test_absorbing_full_mu_reduces_at_unity_mu(self, rng, mol_iso):
        """The full-permeability bracket at mu = 1 + 0i equals the reduced form."""
        for _ in range(50):
            eps = complex(rng.uniform(1.2, 4.0), rng.uniform(0.01, 1.0))
            kap = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.05
            a = 1e-9
            m1 = MediumResponse(eps, 1.0, kap, OMEGA)
            # evaluate the general bracket through a mu infinitesimally off 1
            m2 = MediumResponse(eps, 1.0 + 1e-30, kap, OMEGA)
            g1 = gamma_ch_lfc_absorbing(CavityConfig(a, m1), mol_iso)
            g2 = gamma_ch_lfc_absorbing(CavityConfig(a, m2), mol_iso)
            assert g2 == pytest.approx(g1, rel=1e-12)

    def test_absorbing_lossless_limit_zero(self, mol_iso):
        med = MediumResponse(2.25, 1.0, 0.05, OMEGA)
        cav = CavityConfig(1e-9, med)
        assert gamma_ch_lfc_absorbing(cav, mol_iso) == 0.0

    def test_absorbing_odd_in_kappa(self, rng, mol_iso):
        for _ in range(20):
            med = random_complex_medium(rng)
            cav = CavityConfig(1e-9, med)
            flipped = CavityConfig(1e-9, med.with_kappa(-complex(med.kappa)))
            assert gamma_ch_lfc_absorbing(flipped, mol_iso) == pytest.approx(
                -gamma_ch_lfc_absorbing(cav, mol_iso), rel=1e-13, abs=1e-300
            )

    def test_absorbing_dual_path_magnitude_and_sign(self, rng, mol_iso):
        """Assembling the rate from the leading curl term reproduces the closed
        form in magnitude; the relative sign is -1 (documented discrepancy)."""
        signs = []
        for _ in range(20):
            med = random_complex_medium(rng)
            a = 1e-4 / med.k0
            cav = CavityConfig(a, med)
            closed = gamma_ch_lfc_absorbing(cav, mol_iso)
            lead = np.imag(
                3 * complex(med.kappa)
                / (2 * np.pi * a**3 * med.k0 * (2 * complex(med.mu) + 1) * (2 * complex(med.eps) + 1))
            )
            from chipurcell.rates import CurlKind

            dual = gamma_ch_from_curl(
                CurlGreens(lead * np.eye(3), CurlKind.IMAGINARY_PART), mol_iso, Contraction.BULK_LOCKED
            )
            assert abs(dual / closed) == pytest.approx(1.0, rel=1e-9)
            signs.append(np.sign(dual / closed))
        assert all(s == -1.0 for s in signs)

    def test_electric_vacuum_factor(self, mol_iso):
        cav = CavityConfig(1e-9, MediumResponse(1.0, 1.0, 0.0, OMEGA))
        assert gamma_el_lfc(cav, mol_iso) == pytest.approx(
            gamma_el_bulk(cav.host, mol_iso), rel=1e-14
        )

    def test_electric_frozen_factor(self, mol_iso):
        med = MediumResponse(2.25, 1.0, 0.0, OMEGA)
        cav = CavityConfig(1e-9, med)
        ratio = gamma_el_lfc(cav, mol_iso) / gamma_el_bulk(med, mol_iso)
        assert ratio == pytest.approx(1.5061983471074380165, rel=1e-13)

    def test_electric_absorbing_lossless_is_zero(self, mol_iso):
        # lossy in kappa only: the absorbing form, which Im eps = 0 zeroes
        cav = CavityConfig(1e-9, MediumResponse(2.25, 1.0, 0.05 + 0.01j, OMEGA))
        with pytest.warns(UserWarning, match="Im eps = 0"):
            assert gamma_el_lfc(cav, mol_iso) == 0.0


class TestCorrectedDiscrimination:
    def test_real_kappa_ratio(self, mol_iso):
        """Absorbing-cavity discrimination equals -(2/9) of the uncorrected one
        for real kappa, independent of Im eps."""
        kap = 0.05
        ref = None
        for im_eps in (0.01, 0.1, 1.0):
            med = MediumResponse(2.25 + 1j * im_eps, 1.0, kap, OMEGA)
            cav = CavityConfig(1e-9, med)
            s = s_lfc(cav, mol_iso)
            med_l = MediumResponse(2.25, 1.0, kap, OMEGA)
            s0 = s_bulk(med_l, mol_iso)
            # compare against the leading-order uncorrected quotient
            s0_compact = -6 * kap * rotatory_strength(mol_iso) / (CONSTANTS.c * mol_iso.d_norm_sq)
            assert s == pytest.approx(-(2.0 / 9.0) * s0_compact, rel=1e-12)
            if ref is None:
                ref = s
            assert s == pytest.approx(ref, rel=1e-12)

    def test_achiral_zero(self, mol_iso):
        med = MediumResponse(2.25 + 0.3j, 1.0, 0.0, OMEGA)
        assert s_lfc(CavityConfig(1e-9, med), mol_iso) == 0.0

    def test_absorbing_quotient_oracle(self, rng, mol_iso):
        for _ in range(20):
            eps = complex(rng.uniform(1.2, 4.0), rng.uniform(0.05, 1.0))
            kap = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.03
            med = MediumResponse(eps, 1.0, kap, OMEGA)
            cav = CavityConfig(1e-9, med)
            quotient = gamma_ch_lfc_absorbing(cav, mol_iso) / gamma_el_lfc(cav, mol_iso)
            assert s_lfc(cav, mol_iso) == pytest.approx(quotient, rel=1e-10)

    def test_lossless_factor_structure(self, medium_std, mol_iso):
        s = s_lfc(CavityConfig(1e-9, medium_std), mol_iso)
        f0 = f_factors(medium_std).f0.real
        factor = (3 * 2.25 / 5.5) ** 2
        assert s == pytest.approx(f0 / factor * s_bulk(medium_std, mol_iso), rel=1e-12)

    def test_reduction_to_uncorrected(self, medium_std, mol_iso, monkeypatch):
        monkeypatch.setattr(onsager, "_f0", lambda med, f0_source: 1.0)
        s = s_lfc(CavityConfig(1e-9, medium_std), mol_iso)
        factor = (3 * 2.25 / 5.5) ** 2
        assert s == pytest.approx(s_bulk(medium_std, mol_iso) / factor, rel=1e-13)


def test_rates_lfc_assembly(medium_std, mol_iso):
    b = rates_lfc(CavityConfig(1e-9, medium_std), mol_iso)
    assert b.gamma_total == b.gamma_el + b.gamma_ch
    assert not b.details["absorbing"]
    lossy = MediumResponse(2.25 + 0.3j, 1.0, 0.02 + 0.005j, OMEGA)
    b2 = rates_lfc(CavityConfig(1e-9, lossy), mol_iso)
    assert b2.details["absorbing"]
    assert b2.gamma_el > 0
    # the host selects the absorbing form of each function as well
    assert gamma_el_lfc(CavityConfig(1e-9, lossy), mol_iso) == b2.gamma_el
    assert s_lfc(CavityConfig(1e-9, lossy), mol_iso) == pytest.approx(b2.s_disc, rel=1e-10)


def test_lfc_requires_lossless_for_plain_path(mol_iso):
    lossy = MediumResponse(2.25 + 0.3j, 1.0, 0.02, OMEGA)
    with pytest.raises(LosslessRequiredError):
        gamma_ch_lfc(CavityConfig(1e-9, lossy), mol_iso)


@pytest.mark.parametrize("fn", [gamma_ch_lfc, s_lfc])
def test_unknown_f0_source_raises(fn, medium_std, mol_iso):
    cav = CavityConfig(1e-9, medium_std)
    assert fn(cav, mol_iso, f0_source="main") != fn(cav, mol_iso, f0_source="appendix")
    with pytest.raises(ValueError, match="unknown f0_source 'bogus'"):
        fn(cav, mol_iso, f0_source="bogus")
