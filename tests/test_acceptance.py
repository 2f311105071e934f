"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 8c is expected to fail and is marked xfail(strict): the near-field
half-space closed form grows as 1/z^2 while the exact lossless wavevector
integrals stay bounded as z -> 0. Criteria 8c and 11 check rows 6, 9 and 10
of the ledger of published-versus-exact discrepancies,
``tests/test_discrepancies.py``, which holds the other rows.
"""

import contextlib
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from chipurcell import (
    CONSTANTS,
    CavityConfig,
    Contraction,
    Handedness,
    Limit,
    MediumResponse,
    PlanarGeometry,
    TransitionDipoles,
    curl_img_g0_coincident,
    curl_img_lfc,
    f0_main,
    f_factors,
    fresnel_nonretarded,
    gamma_ch_bulk,
    gamma_ch_from_curl,
    gamma_ch_lfc,
    onsager_coefficients,
    rates_halfspace,
    rates_lfc,
    rates_mirror,
    rotatory_strength,
)
from specfun import Parity, RadialKind, WaveFunctionIndex, vector_wave_cartesian
from conftest import DEBYE, OMEGA, mirror_curl, quiet, random_lossless_medium, random_molecule, reflections_at
from oracles import (
    curl_g0_finite,
    fd_curl,
    random_rotations,
    richardson_rho2,
    solve_cavity_coefficients,
    textbook_fresnel,
)

REPO = Path(__file__).resolve().parents[1]
K0 = OMEGA / CONSTANTS.c


@contextlib.contextmanager
def report(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: {desc} ... FAIL")
        raise
    print(f"ACCEPTANCE {num}: {desc} ... PASS")


def test_criterion_01_bulk_dual_path_identity(rng):
    with report(1, "bulk dual-path identity (closed form vs curl contraction), 100 draws, 1e-10"):
        for _ in range(100):
            med = random_lossless_medium(rng)
            mol = random_molecule(rng, omega=med.omega, isotropic=bool(rng.random() < 0.5))
            direct = gamma_ch_bulk(med, mol)
            via = gamma_ch_from_curl(curl_img_g0_coincident(med), mol)
            assert abs(via - direct) <= 1e-10 * abs(direct) + 1e-280


def test_criterion_02_coincidence_limit_extrapolation(rng):
    with report(2, "finite-separation curl extrapolates to the coincidence form, 20 draws, 1e-6"):
        for _ in range(20):
            med = random_lossless_medium(rng)
            target = curl_img_g0_coincident(med)[0, 0].real
            if target == 0.0:
                continue
            rho0 = 0.05 / med.k_minus.real
            extrap = richardson_rho2(
                lambda rho: curl_g0_finite(med, rho).imag[0, 0], rho0, levels=5
            )
            assert abs(extrap.real - target) <= 1e-6 * abs(target)


def test_criterion_03_curl_eigen_relations(rng):
    with report(3, "curl eigen-relations of the vector wave functions, n <= 3, 1e-6"):
        k_plus, k_minus = 1.45e7, 1.55e7
        for n in range(1, 4):
            for m in range(0, n + 1):
                for parity in (Parity.EVEN, Parity.ODD):
                    if parity is Parity.ODD and m == 0:
                        continue  # identically null family
                    idx = WaveFunctionIndex(parity, m, n, RadialKind.BESSEL)
                    for _ in range(20):
                        xyz = rng.normal(size=3)
                        xyz *= rng.uniform(0.5, 2.5) / (np.linalg.norm(xyz) * 1e7)
                        h = 1e-6 * np.linalg.norm(xyz)
                        for which, k, sign in (("V", k_plus, 1.0), ("W", k_minus, -1.0)):
                            field = lambda q: vector_wave_cartesian(idx, q, k, which)
                            curl = fd_curl(field, xyz, h)
                            ref = sign * k * field(xyz)
                            scale = np.max(np.abs(ref))
                            if scale < 1e-20:
                                continue
                            assert np.max(np.abs(curl - ref)) <= 1e-6 * scale


def test_criterion_04_cavity_coefficients_vs_boundary_solve(rng):
    with report(4, "cavity coefficients match the boundary-condition solve (1e-8); flip relation exact"):
        a = 3e-3 / K0
        draws = [
            (2.25 + 0.05j, 1.0 + 0.01j, 0.0),
            (2.0 + 0.3j, 1.2 - 0.05j, (2 + 1j) * 1e-6),
            (1.5 + 0.33j, 1.28 + 0.05j, (1 - 2j) * 1e-6),
        ]
        for eps, mu, kap in draws:
            med = MediumResponse(eps, mu, kap, OMEGA)
            co = onsager_coefficients(CavityConfig(a, med))
            a_v, a_w = solve_cavity_coefficients(eps, mu, kap, K0, a)
            assert abs(a_v - co.a0v) <= 1e-8 * abs(co.a0v)
            assert abs(a_w - co.a0w) <= 1e-8 * abs(co.a0w)
        for _ in range(50):
            med = MediumResponse(
                complex(rng.uniform(1.2, 4), rng.uniform(0, 0.6)),
                complex(rng.uniform(0.7, 1.5), rng.uniform(0, 0.1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.05,
                OMEGA,
            )
            cav = CavityConfig(float(rng.uniform(0.5, 2.0)) * 1e-9, med)
            co = onsager_coefficients(cav)
            co_f = onsager_coefficients(
                CavityConfig(cav.radius_a, dataclasses.replace(med, kappa=-complex(med.kappa)))
            )
            assert co.b0v == co_f.a0w and co.b0w == co_f.a0v


def test_criterion_05_cavity_prefactor_identity_and_asymptote(rng):
    with report(5, "1/a^3 prefactor identity (1e-12, 50 draws); small-radius ratio -> 1 (1e-3)"):
        for _ in range(50):
            med = MediumResponse(
                complex(rng.uniform(1.2, 4), rng.uniform(0.01, 0.8)),
                complex(rng.uniform(0.7, 1.6), rng.uniform(0, 0.15)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.05,
                OMEGA,
            )
            a = 1e-9
            f3 = f_factors(med).f3
            lhs = complex(med.kappa) * CONSTANTS.c * f3 / (np.pi * a**3 * med.omega)
            rhs = 3.0 * complex(med.kappa) / (
                2 * np.pi * a**3 * med.k0 * (2 * complex(med.mu) + 1) * (2 * complex(med.eps) + 1)
            )
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        med = MediumResponse(2.25 + 0.4j, 1.0 + 0.05j, 0.03 + 0.01j, OMEGA)
        a = 1e-4 / med.k0
        full = curl_img_lfc(CavityConfig(a, med))[0, 0].real
        lead = np.imag(
            3 * complex(med.kappa)
            / (2 * np.pi * a**3 * med.k0 * (2 * complex(med.mu) + 1) * (2 * complex(med.eps) + 1))
        )
        assert abs(full / lead - 1.0) <= 1e-3


def test_criterion_06_absorbing_discrimination_identity(mol_iso):
    with report(6, "absorbing-cavity discrimination = -(2/9) of the uncorrected one, Im-eps independent"):
        kap = 0.05
        s0_compact = -6 * kap * rotatory_strength(mol_iso) / (CONSTANTS.c * mol_iso.d_norm_sq)
        values = []
        for im_eps in (0.01, 0.1, 1.0):
            med = MediumResponse(2.25 + 1j * im_eps, 1.0, kap, OMEGA)
            s = rates_lfc(CavityConfig(1e-9, med), mol_iso).s_disc
            assert abs(s - (-(2.0 / 9.0) * s0_compact)) <= 1e-12 * abs(s0_compact)
            values.append(s)
        assert abs(values[0] - values[1]) <= 1e-12 * abs(values[0])
        assert abs(values[0] - values[2]) <= 1e-12 * abs(values[0])


def test_criterion_07_fresnel_reductions():
    with report(7, "achiral-vs-textbook (1e-12), near-field limit (1e-6)"):
        med0 = MediumResponse(2.25, 1.0, 0.0, OMEGA)
        for x in np.linspace(0.0, 0.99, 34):
            r_ss, r_pp, r_sp = reflections_at(med0, x * med0.k0)
            r_s, r_p = textbook_fresnel(2.25, 1.0, med0.k0, x * med0.k0)
            assert abs(r_ss - r_s) <= 1e-12
            assert abs(r_pp - r_p) <= 1e-12
            assert abs(r_sp) <= 1e-14
        med = MediumResponse(2.25, 1.0, 0.05, OMEGA)
        r_inf = reflections_at(med, 1e5 * med.k0)
        r_nr = fresnel_nonretarded(med)
        for a, b in zip(r_inf, r_nr):
            assert abs(a - b) <= 1e-6 * abs(b)


def test_criterion_08a_mirror_far_field_quadrature():
    with report("8a", "quadrature curl matches the far-field mirror closed form at k0 z = 20 (3%)"):
        z = 20.0 / K0
        geom = PlanarGeometry(z_m=z, handedness=Handedness.RIGHT)
        curl = mirror_curl(geom, OMEGA)
        closed = -np.sin(2 * K0 * z) / (16 * np.pi * z**2)
        assert abs(curl[0, 0].real - closed) <= 0.03 * abs(closed)


def test_criterion_08b_mirror_near_field_quadrature():
    with report("8b", "quadrature curl matches the near-field mirror closed form at k0 z = 0.01 (3%)"):
        z = 0.01 / K0
        geom = PlanarGeometry(z_m=z, handedness=Handedness.RIGHT)
        curl = mirror_curl(geom, OMEGA)
        closed = -1.0 / (32 * np.pi * K0 * z**3)
        assert abs(curl[0, 0].real - closed) <= 0.03 * abs(closed)
        assert abs(curl[2, 2].real - 2 * closed) <= 0.03 * abs(2 * closed)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "documented defect of the near-field half-space closed form: it grows as "
        "1/z^2 while the exact lossless wavevector integrals stay bounded as z -> 0 "
        "(all evanescent-tail contributions to curl Im G are real for lossless media); "
        "measured quadrature/closed ratio ~ -1.2e-3 at k0 z = 0.01"
    ),
)
def test_criterion_08c_halfspace_near_field_quadrature(mol_iso):
    desc = "quadrature rate matches the near-field half-space closed form at k0 z = 0.01 (3%)"
    z = 0.01 / K0
    med = MediumResponse(2.25, 1.0, 0.05, OMEGA)
    geom = PlanarGeometry(z_m=z, medium=med)
    closed = quiet(rates_halfspace, geom, mol_iso, Limit.NONRETARDED)
    numeric = rates_halfspace(geom, mol_iso, Limit.NUMERIC)
    print(
        f"ACCEPTANCE 8c: {desc} ... FAIL (expected): "
        f"closed={closed.gamma_ch:.6e} 1/s, quadrature={numeric.gamma_ch:.6e} 1/s, "
        f"ratio={numeric.gamma_ch / closed.gamma_ch:.3e}"
    )
    assert abs(numeric.gamma_ch - closed.gamma_ch) <= 0.03 * abs(closed.gamma_ch)


def test_criterion_09_curie_principle_and_sign_flips(rng, mol_iso, mol_aniso):
    with report(9, "achiral inputs give exactly zero chiral rate; enantiomer flips are exact"):
        z_near, z_far = 0.01 / K0, 15.0 / K0
        mol_r0 = TransitionDipoles([DEBYE, 0, 0], [1e-23, 0, 0], OMEGA, isotropic=True)  # R = 0
        med_achiral = MediumResponse(2.25, 1.0, 0.0, OMEGA)
        med_achiral_lossy = MediumResponse(2.25 + 0.2j, 1.0, 0.0, OMEGA)
        med = MediumResponse(2.25, 1.0, 0.05, OMEGA)

        # kappa = 0 or R = 0 -> gamma_ch = 0 in every geometry and limit
        checks = [
            gamma_ch_bulk(med_achiral, mol_iso),
            gamma_ch_bulk(med, mol_r0),
            rates_lfc(CavityConfig(1e-9, med_achiral), mol_iso).gamma_ch,
            rates_lfc(CavityConfig(1e-9, med_achiral_lossy), mol_iso).gamma_ch,
            gamma_ch_lfc(CavityConfig(1e-9, med_achiral_lossy), mol_iso),
        ]
        for limit, z in ((Limit.RETARDED, z_far), (Limit.NONRETARDED, z_near), (Limit.NUMERIC, z_near)):
            geom_m = PlanarGeometry(z_m=z, handedness=Handedness.RIGHT)
            checks.append(quiet(rates_mirror, geom_m, mol_r0, limit).gamma_ch)
            geom_h = PlanarGeometry(z_m=z, medium=med_achiral)
            checks.append(quiet(rates_halfspace, geom_h, mol_iso, limit).gamma_ch)
            geom_h2 = PlanarGeometry(z_m=z, medium=med)
            checks.append(quiet(rates_halfspace, geom_h2, mol_r0, limit).gamma_ch)
        for value in checks:
            assert abs(value) <= 1e-300

        # sign flips: kappa -> -kappa (bulk, cavity, half-space), handedness
        # (mirror), m -> -m (everything)
        med_f = dataclasses.replace(med, kappa=-0.05)
        iso_f, aniso_f = dataclasses.replace(mol_iso, m=-mol_iso.m), dataclasses.replace(mol_aniso, m=-mol_aniso.m)
        assert gamma_ch_bulk(med_f, mol_aniso) == -gamma_ch_bulk(med, mol_aniso)
        assert rates_lfc(CavityConfig(1e-9, med_f), mol_iso).gamma_ch == -rates_lfc(
            CavityConfig(1e-9, med), mol_iso
        ).gamma_ch
        for limit, z in ((Limit.RETARDED, z_far), (Limit.NONRETARDED, z_near), (Limit.NUMERIC, z_near)):
            right = quiet(rates_mirror, PlanarGeometry(z_m=z, handedness=Handedness.RIGHT), mol_aniso, limit)
            left = quiet(rates_mirror, PlanarGeometry(z_m=z, handedness=Handedness.LEFT), mol_aniso, limit)
            assert left.gamma_ch == -right.gamma_ch
            flip = quiet(rates_mirror, PlanarGeometry(z_m=z, handedness=Handedness.RIGHT), aniso_f, limit)
            assert flip.gamma_ch == -right.gamma_ch
            hs = quiet(rates_halfspace, PlanarGeometry(z_m=z, medium=med), mol_iso, limit)
            hs_k = quiet(rates_halfspace, PlanarGeometry(z_m=z, medium=med_f), mol_iso, limit)
            hs_m = quiet(rates_halfspace, PlanarGeometry(z_m=z, medium=med), iso_f, limit)
            assert hs_k.gamma_ch == pytest.approx(-hs.gamma_ch, rel=1e-12, abs=1e-300)
            assert hs_m.gamma_ch == pytest.approx(-hs.gamma_ch, rel=1e-12, abs=1e-300)
        # electric rates unchanged under every flip
        assert gamma_ch_bulk(med, aniso_f) == -gamma_ch_bulk(med, mol_aniso)


def test_criterion_10_orientation_averaging():
    with report(10, "orientation-averaged projections give 2/3 and 4/3 of R (1e5 samples, 1%)"):
        rng = np.random.default_rng(424242)
        d = np.array([1.0 + 0.2j, -0.3j, 0.5]) * DEBYE
        m = np.array([0.8j, 0.1, -0.4 + 0.9j]) * 1e-23
        r_ik = float(np.imag(np.dot(d, np.conj(m))))
        rots = random_rotations(100_000, rng)
        dr = rots @ d
        mr = rots @ m
        par = float(np.imag(np.sum(dr[:, :2] * np.conj(mr[:, :2]), axis=1)).mean())
        full_z = float(np.imag(np.sum(dr * np.conj(mr), axis=1) + dr[:, 2] * np.conj(mr[:, 2])).mean())
        assert abs(par - 2.0 / 3.0 * r_ik) <= 0.01 * abs(r_ik)
        assert abs(full_z - 4.0 / 3.0 * r_ik) <= 0.01 * abs(r_ik)


def test_criterion_11_documented_discrepancies(rng, mol_iso):
    with report(11, "documented-discrepancy checks: dual-path |ratio| = 1 with logged sign; f0 variants"):
        signs = []
        for _ in range(20):
            med = MediumResponse(
                complex(rng.uniform(1.2, 4), rng.uniform(0.05, 0.8)),
                complex(rng.uniform(0.8, 1.4), rng.uniform(0.0, 0.1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.05,
                OMEGA,
            )
            a = 1e-4 / med.k0
            closed = gamma_ch_lfc(CavityConfig(a, med), mol_iso)
            lead = np.imag(
                3 * complex(med.kappa)
                / (2 * np.pi * a**3 * med.k0 * (2 * complex(med.mu) + 1) * (2 * complex(med.eps) + 1))
            )
            dual = gamma_ch_from_curl(lead * np.eye(3), mol_iso, Contraction.BULK_LOCKED)
            assert abs(abs(dual / closed) - 1.0) <= 1e-9
            signs.append(float(np.sign(dual / closed)))
        print(f"ACCEPTANCE 11 note: dual-path sign relative to the closed form = {set(signs)}")
        assert set(signs) == {-1.0}
        # the two f0 normalizations pinned to their own vacuum limits
        vac = MediumResponse(1.0, 1.0, 0.0, OMEGA)
        assert abs(f_factors(vac).f0 - 4.0 / 9.0) <= 1e-12
        assert abs(f0_main(vac) - 10.0 / 9.0) <= 1e-12


def test_criterion_12_cli_golden_files(tmp_path, capsys):
    with report(12, "CLI golden files reproduce byte-identically"):
        from chipurcell.cli import main

        for scenario, golden in (
            ("bulk_lossless.json", "bulk_lossless.csv"),
            ("mirror_retarded.json", "mirror_retarded.csv"),
            ("halfspace_nonretarded.json", "halfspace_nonretarded.csv"),
        ):
            out = tmp_path / f"out_{golden}"
            code = main(["rate", "--config", str(REPO / "scenarios" / scenario), "--csv", str(out), "--json"])
            capsys.readouterr()
            assert code == 0
            assert out.read_bytes() == (REPO / "tests" / "golden" / golden).read_bytes()
