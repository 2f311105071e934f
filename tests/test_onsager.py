import dataclasses

import numpy as np
import pytest

from chipurcell import (
    CONSTANTS,
    CavityConfig,
    Contraction,
    MediumResponse,
    curl_img_lfc,
    f0_main,
    f_factors,
    gamma_ch_bulk,
    gamma_ch_from_curl,
    gamma_ch_lfc,
    gamma_el_bulk,
    gamma_el_lfc,
    rates_bulk,
    rates_lfc,
    rotatory_strength,
)
from chipurcell.errors import PoleError, RadiusTooLargeError
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
            flipped = CavityConfig(cav.radius_a, dataclasses.replace(med, kappa=-complex(med.kappa)))
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
        c1 = onsager_coefficients(CavityConfig(a, dataclasses.replace(med0, kappa=1.0))).a0v
        c0 = onsager_coefficients(CavityConfig(a, med0)).a0v
        assert abs(d_solve - (c1 - c0)) / abs(c1 - c0) < 1e-6


class TestCorrectedCurl:
    def test_real_parameters_keep_only_order_one_term(self, medium_std):
        cav = CavityConfig(1e-9, medium_std)
        m = curl_img_lfc(cav)
        expected = 0.05 * OMEGA**2 * f_factors(medium_std).f0.real / (np.pi * CONSTANTS.c**2)
        assert m[0, 0].real == pytest.approx(expected, rel=1e-13)

    def test_achiral_zero(self):
        cav = CavityConfig(1e-9, MediumResponse(2.25, 1.0, 0.0, OMEGA))
        assert np.all(curl_img_lfc(cav) == 0)

    def test_small_radius_asymptote(self):
        """1/a^3 term dominates for complex parameters: ratio -> 1 at k0 a = 1e-4."""
        med = MediumResponse(2.25 + 0.4j, 1.0 + 0.05j, 0.03 + 0.01j, OMEGA)
        a = 1e-4 / med.k0
        cav = CavityConfig(a, med)
        full = curl_img_lfc(cav)[0, 0].real
        lead = np.imag(
            3 * complex(med.kappa)
            / (2 * np.pi * a**3 * med.k0 * (2 * complex(med.mu) + 1) * (2 * complex(med.eps) + 1))
        )
        assert full / lead == pytest.approx(1.0, abs=1e-3)

    def test_radius_guard(self, medium_std, mol_iso):
        # every cavity function refuses k0 a = 0.2, whatever the host; the
        # lossless rates returned numbers there
        for host in (medium_std, MediumResponse(2.25 + 0.1j, 1.0, 0.05, OMEGA)):
            big = CavityConfig(0.2 / host.k0, host)
            with pytest.raises(RadiusTooLargeError):
                curl_img_lfc(big)
            with pytest.raises(RadiusTooLargeError):
                gamma_ch_lfc(big, mol_iso)
            with pytest.raises(RadiusTooLargeError):
                gamma_el_lfc(big, mol_iso)
            with pytest.raises(RadiusTooLargeError):
                rates_lfc(big, mol_iso)


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
        """The absorbing form at mu = 1 + 0i and at mu a hair off 1 agree:
        one full-permeability form serves every mu."""
        for _ in range(50):
            eps = complex(rng.uniform(1.2, 4.0), rng.uniform(0.01, 1.0))
            kap = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.05
            a = 1e-9
            m1 = MediumResponse(eps, 1.0, kap, OMEGA)
            # evaluate the general bracket through a mu infinitesimally off 1
            m2 = MediumResponse(eps, 1.0 + 1e-30, kap, OMEGA)
            g1 = gamma_ch_lfc(CavityConfig(a, m1), mol_iso)
            g2 = gamma_ch_lfc(CavityConfig(a, m2), mol_iso)
            assert g2 == pytest.approx(g1, rel=1e-12)

    def test_absorbing_zero_mu_is_a_pole(self, mol_iso):
        # mu = 0 zeroes the f3 denominator (2 mu + 1)(mu + 2 n_r^2), as it
        # does for the lossless host
        for eps in (2.25, 2.25 + 0.1j):
            with pytest.raises(PoleError):
                gamma_ch_lfc(CavityConfig(1e-9, MediumResponse(eps, 0.0, 0.05, OMEGA)), mol_iso)

    def test_absorbing_lossless_limit_zero(self, mol_iso):
        # the 1/a^3 term is purely dispersive for real parameters: at real
        # mu and kappa the absorbing form falls linearly with Im eps, so it
        # vanishes as the host's loss does
        def slope(im_eps):
            cav = CavityConfig(1e-9, MediumResponse(2.25 + 1j * im_eps, 1.0, 0.05, OMEGA))
            return gamma_ch_lfc(cav, mol_iso) / im_eps

        for im_eps in (1e-9, 1e-12, 1e-15):
            assert slope(im_eps) == pytest.approx(slope(1e-6), rel=1e-12)

    def test_absorbing_odd_in_kappa(self, rng, mol_iso):
        for _ in range(20):
            med = random_complex_medium(rng)
            cav = CavityConfig(1e-9, med)
            flipped = CavityConfig(1e-9, dataclasses.replace(med, kappa=-complex(med.kappa)))
            assert gamma_ch_lfc(flipped, mol_iso) == pytest.approx(
                -gamma_ch_lfc(cav, mol_iso), rel=1e-13, abs=1e-300
            )

    def test_absorbing_dual_path_magnitude_and_sign(self, rng, mol_iso):
        """Assembling the rate from the leading curl term reproduces the closed
        form in magnitude; the relative sign is -1 (documented discrepancy)."""
        signs = []
        for _ in range(20):
            med = random_complex_medium(rng)
            a = 1e-4 / med.k0
            cav = CavityConfig(a, med)
            closed = gamma_ch_lfc(cav, mol_iso)
            lead = np.imag(
                3 * complex(med.kappa)
                / (2 * np.pi * a**3 * med.k0 * (2 * complex(med.mu) + 1) * (2 * complex(med.eps) + 1))
            )
            dual = gamma_ch_from_curl(lead * np.eye(3), mol_iso, Contraction.BULK_LOCKED)
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


def absorbing_s(med, mol):
    """Absorbing-cavity quotient of the 1/a^3 forms for an isotropic molecule,
    2 R Im(conj(kappa) (2 eps + 1)(2 mu + 1)) / (c |d|^2 Im eps |2 mu + 1|^2);
    for mu = 1 it is the paper's (2 R/(3 c |d|^2)) [2 Re kappa
    - (Im kappa/Im eps)(2 Re eps + 1)]."""
    eps, mu, kap = complex(med.eps), complex(med.mu), complex(med.kappa)
    bracket = (kap.conjugate() * (2 * eps + 1) * (2 * mu + 1)).imag
    return (2 * rotatory_strength(mol) * bracket
            / (CONSTANTS.c * mol.d_norm_sq * eps.imag * abs(2 * mu + 1) ** 2))


class TestCorrectedDiscrimination:
    def test_real_kappa_ratio(self, mol_iso):
        """Absorbing-cavity discrimination equals -(2/9) of the uncorrected one
        for real kappa, independent of Im eps."""
        kap = 0.05
        ref = None
        for im_eps in (0.01, 0.1, 1.0):
            med = MediumResponse(2.25 + 1j * im_eps, 1.0, kap, OMEGA)
            s = rates_lfc(CavityConfig(1e-9, med), mol_iso).s_disc
            # compare against the leading-order uncorrected quotient
            s0_compact = -6 * kap * rotatory_strength(mol_iso) / (CONSTANTS.c * mol_iso.d_norm_sq)
            assert s == pytest.approx(-(2.0 / 9.0) * s0_compact, rel=1e-12)
            if ref is None:
                ref = s
            assert s == pytest.approx(ref, rel=1e-12)

    def test_achiral_zero(self, mol_iso):
        med = MediumResponse(2.25 + 0.3j, 1.0, 0.0, OMEGA)
        assert rates_lfc(CavityConfig(1e-9, med), mol_iso).s_disc == 0.0

    def test_absorbing_quotient_oracle(self, rng, mol_iso):
        media = []
        for _ in range(20):
            eps = complex(rng.uniform(1.2, 4.0), rng.uniform(0.05, 1.0))
            kap = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.03
            media.append(MediumResponse(eps, 1.0, kap, OMEGA))
        # complex mu != 1: the quotient keeps the 1/|2 mu + 1|^2 of the rates
        media += [random_complex_medium(rng, kappa_scale=0.03) for _ in range(20)]
        media.append(MediumResponse(2.25 + 0.3j, 1.5, 0.02, OMEGA))
        for med in media:
            b = rates_lfc(CavityConfig(1e-9, med), mol_iso)
            assert b.s_disc == b.gamma_ch / b.gamma_el
            assert b.s_disc == pytest.approx(absorbing_s(med, mol_iso), rel=1e-10)

    def test_lossless_factor_structure(self, medium_std, mol_iso):
        s = rates_lfc(CavityConfig(1e-9, medium_std), mol_iso).s_disc
        f0 = f_factors(medium_std).f0.real
        factor = (3 * 2.25 / 5.5) ** 2
        assert s == pytest.approx(f0 / factor * rates_bulk(medium_std, mol_iso).s_disc, rel=1e-12)

    def test_reduction_to_uncorrected(self, medium_std, mol_iso, monkeypatch):
        monkeypatch.setattr(onsager, "_f0", lambda med, f0_source: 1.0)
        s = rates_lfc(CavityConfig(1e-9, medium_std), mol_iso).s_disc
        factor = (3 * 2.25 / 5.5) ** 2
        assert s == pytest.approx(rates_bulk(medium_std, mol_iso).s_disc / factor, rel=1e-13)


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
    compact = (2 * rotatory_strength(mol_iso) / (3 * CONSTANTS.c * mol_iso.d_norm_sq)
               * (2 * 0.02 - 0.005 / 0.3 * (2 * 2.25 + 1)))
    assert b2.s_disc == pytest.approx(compact, rel=1e-10)


def test_lfc_chiral_rate_takes_its_form_from_the_host(mol_iso):
    lossy = CavityConfig(1e-9, MediumResponse(2.25 + 0.3j, 1.0, 0.02, OMEGA))
    assert gamma_ch_lfc(lossy, mol_iso) == rates_lfc(lossy, mol_iso).gamma_ch


@pytest.mark.parametrize("fn", [gamma_ch_lfc, rates_lfc])
def test_unknown_f0_source_raises(fn, medium_std, mol_iso):
    cav = CavityConfig(1e-9, medium_std)
    assert fn(cav, mol_iso, f0_source="main") != fn(cav, mol_iso, f0_source="appendix")
    lossy = MediumResponse(2.25 + 0.3j, 1.0, 0.02 + 0.005j, OMEGA)
    for host in (medium_std, lossy):
        with pytest.raises(ValueError, match="unknown f0_source 'bogus'"):
            fn(CavityConfig(1e-9, host), mol_iso, f0_source="bogus")
