import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import chipurcell
from chipurcell import (
    CONSTANTS,
    Contraction,
    MediumResponse,
    TransitionDipoles,
    curl_img_g0_coincident,
    degree_of_discrimination,
    gamma_ch_bulk,
    gamma_ch_from_curl,
    gamma_el_bulk,
    gamma_el_from_img,
    gamma_vacuum,
    img_g0_coincident,
    rates_bulk,
    rotatory_strength,
)
from chipurcell.errors import PhysicsError
from conftest import DEBYE, OMEGA, random_lossless_medium, random_molecule


def test_public_surface_is_pinned():
    """Adding or removing a public name is a decision this list records."""
    assert sorted(chipurcell.__all__) == [
        "CONSTANTS", "CavityConfig", "Contraction", "Handedness",
        "Limit", "MediumResponse", "Method", "OnsagerCoefficients", "PhysicalConstants",
        "PlanarGeometry", "QuadratureResult", "QuadratureSpec", "RateBreakdown",
        "TransitionDipoles", "curl_img_g0_coincident",
        "curl_img_lfc", "degree_of_discrimination", "errors", "f0_main", "f_factors",
        "fresnel_nonretarded", "fresnel_retarded", "gamma_ch_bulk", "gamma_ch_from_curl",
        "gamma_ch_lfc", "gamma_el_bulk", "gamma_el_from_img", "gamma_el_lfc", "gamma_vacuum",
        "img_g0_coincident", "onsager_coefficients",
        "planar_reflections", "rates_bulk", "rates_halfspace", "rates_lfc", "rates_mirror",
        "rotatory_strength", "scatter_numeric",
    ]


def test_isotropic_flag_is_read_in_one_function():
    """The orientation average is decided in one place: besides the molecule
    type and the scenario parser, only ``rates.contract`` reads the
    ``isotropic`` attribute."""
    readers = {}
    for path in sorted(Path(chipurcell.__file__).parent.glob("*.py")):
        if path.name in ("molecules.py", "cli.py"):
            continue
        tree = ast.parse(path.read_text())
        reads = lambda node: sum(isinstance(n, ast.Attribute) and n.attr == "isotropic"
                                 for n in ast.walk(node))
        if reads(tree):
            funcs = {f.name: reads(f) for f in tree.body if isinstance(f, ast.FunctionDef)}
            readers[path.stem] = (reads(tree), {k: v for k, v in funcs.items() if v})
    assert readers.keys() == {"rates"}
    total, funcs = readers["rates"]
    assert funcs.keys() == {"contract"} and funcs["contract"] == total


def test_medium_fields_are_stored_in_one_place():
    """``MediumResponse`` holds eps, mu and kappa as complex and owns the
    circular wave numbers: no other module coerces its fields, and the
    half-space reads k+- from the medium, not from the bulk module."""
    package = Path(chipurcell.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "media.py":
            text = path.read_text()
            assert "complex(med." not in text and "complex(self." not in text, path.name
    imports = [node for node in ast.walk(ast.parse((package / "halfspace.py").read_text()))
               if isinstance(node, ast.ImportFrom)]
    assert imports and not any(node.module == "bulk" or any(alias.name == "bulk" for alias in node.names)
                               for node in imports)


def test_planar_assembly_is_written_once():
    """The planar conventions have one home each: one builder of the planar
    breakdown, one prefactor k0/(8 pi), one function that turns channel
    totals into tensor entries (the quadrature's and the mirror's exact
    ones, with no hand-simplified cos/sin form), one range check per
    planar rates function, one layout of the five tensor entries
    (``_tensors``) and one tail (``_planar_rates``) through which every
    planar rate reaches the master contractions. The closed forms' weight
    matrices are gone, and mu0, hbar and eps0 appear only in the published
    ``*_variant`` forms."""
    text = (Path(chipurcell.__file__).parent / "halfspace.py").read_text()
    assert text.count("RateBreakdown(") == 1
    assert text.count("k0 / (8.0 * np.pi)") == 1
    funcs = {f.name: f for f in ast.parse(text).body if isinstance(f, ast.FunctionDef)}

    def calls(name):
        return [ast.unparse(n.func) for n in ast.walk(funcs[name]) if isinstance(n, ast.Call)]

    assert "_assemble" in calls("scatter_numeric") and "_assemble" in calls("_mirror_curl")
    assert not {"np.cos", "np.sin"} & set(calls("_mirror_curl"))
    for rates in ("rates_mirror", "rates_halfspace"):
        assert calls(rates).count("_warn_limit") == 1

    names = {n.id for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Name)} | set(funcs)
    assert not names & {"_PAR", "_FULL_Z", "_CROSS_Z", "_D_PAR", "_chiral", "_d_par_sq", "contract"}
    for node in ast.parse(text).body:
        if not (isinstance(node, ast.FunctionDef) and node.name.endswith("_variant")):
            assert not {"mu0", "hbar", "eps0"} & {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    assert "_tensors" in calls("scatter_numeric") and "_tensors" in calls("_mirror_curl")
    contractions = {"gamma_ch_from_curl", "gamma_el_from_img"}

    def reached(name, seen):
        # the module's functions that ``name`` calls or passes on
        seen.add(name)
        for n in ast.walk(funcs[name]):
            if isinstance(n, ast.Name) and n.id in funcs and n.id not in seen:
                reached(n.id, seen)
        return seen

    for rates in ("rates_mirror", "rates_halfspace"):
        assert "_planar_rates" in calls(rates)
        assert {f for f in reached(rates, set()) if contractions & set(calls(f))} == {"_planar_rates"}


def test_constants_identity():
    c = CONSTANTS
    assert abs(c.c**2 * c.eps0 * c.mu0 - 1.0) < 1e-12


class TestRotatoryStrength:
    def test_colinear_quarter_phase(self):
        mol = TransitionDipoles([1e-30, 0, 0], [1e-23j, 0, 0], OMEGA)
        # d.m* = 1e-30 * (-1e-23 i) -> Im = -1e-53
        assert rotatory_strength(mol) == pytest.approx(-1e-53, rel=1e-15)

    def test_real_dipoles_give_zero(self):
        mol = TransitionDipoles([1.0, 2.0, -0.5], [0.3, -1.0, 4.0], OMEGA)
        assert rotatory_strength(mol) == 0.0

    def test_symmetric_cancellation(self):
        mol = TransitionDipoles([1, 1, 0], [1j, -1j, 0], OMEGA)
        assert rotatory_strength(mol) == pytest.approx(0.0, abs=1e-30)


class TestChiralContraction:
    def test_zero_curl(self, mol_aniso):
        assert gamma_ch_from_curl(np.zeros((3, 3)), mol_aniso) == 0.0

    def test_identity_curl_isotropic(self, mol_iso):
        alpha = 3.7e12  # 1/m^2
        curl = alpha * np.eye(3)
        expected = 4 * CONSTANTS.mu0 * mol_iso.omega_ik / CONSTANTS.hbar * alpha * rotatory_strength(mol_iso)
        assert gamma_ch_from_curl(curl, mol_iso) == pytest.approx(expected, rel=1e-14)

    def test_bulk_cross_check_locks_sign(self, medium_std, mol_iso):
        """Contraction of the coincidence curl must equal the bulk closed form."""
        mol = TransitionDipoles(mol_iso.d, mol_iso.m, medium_std.omega, isotropic=True)
        via_curl = gamma_ch_from_curl(curl_img_g0_coincident(medium_std), mol)
        assert via_curl == pytest.approx(gamma_ch_bulk(medium_std, mol), rel=1e-10)

    def test_real_linearity(self, rng, mol_aniso):
        t1 = rng.normal(size=(3, 3))
        t2 = rng.normal(size=(3, 3))
        a, b = 2.5, -1.3
        g = lambda t: gamma_ch_from_curl(t, mol_aniso)
        assert g(a * t1 + b * t2) == pytest.approx(a * g(t1) + b * g(t2), rel=1e-12)

    def test_orderings_differ_by_symmetric_sign(self, rng, mol_aniso):
        sym = rng.normal(size=(3, 3))
        sym = sym + sym.T
        asym = rng.normal(size=(3, 3))
        asym = asym - asym.T
        for t, rel_sign in ((sym, -1.0), (asym, 1.0)):
            a = gamma_ch_from_curl(t, mol_aniso, Contraction.BULK_LOCKED)
            b = gamma_ch_from_curl(t, mol_aniso, Contraction.PLANAR_PAPER)
            assert a == pytest.approx(rel_sign * b, rel=1e-12)

    @pytest.mark.parametrize("contraction", list(Contraction))
    def test_real_curl_contracts_as_its_complex_cast(self, rng, mol_iso, mol_aniso, contraction):
        """The planar curls are real arrays; contracting one must give the
        bits its complex cast gives."""
        t = rng.normal(size=(3, 3))
        for mol in (mol_iso, mol_aniso):
            real = gamma_ch_from_curl(t, mol, contraction)
            cast = gamma_ch_from_curl(t.astype(complex), mol, contraction)
            assert real.hex() == cast.hex()

    def test_magnetic_flip_negates(self, rng):
        mol = random_molecule(rng)
        t = rng.normal(size=(3, 3))
        assert gamma_ch_from_curl(t, dataclasses.replace(mol, m=-mol.m)) == -gamma_ch_from_curl(t, mol)


class TestElectricContraction:
    def test_zero(self, mol_aniso):
        assert gamma_el_from_img(np.zeros((3, 3)), mol_aniso) == 0.0

    def test_bulk_img_reproduces_bulk_rate(self, medium_std, rng):
        mol = random_molecule(rng, omega=medium_std.omega)
        img = img_g0_coincident(medium_std)
        assert gamma_el_from_img(img, mol) == pytest.approx(gamma_el_bulk(medium_std, mol), rel=1e-12)

    def test_diagonal_projection(self):
        mol = TransitionDipoles([2e-30, 0, 0], [0, 0, 0], OMEGA)
        img = np.diag([0.4, -1.0, 7.0])
        expected = 2 * CONSTANTS.mu0 * OMEGA**2 / CONSTANTS.hbar * 0.4 * abs(2e-30) ** 2
        assert gamma_el_from_img(img, mol) == pytest.approx(expected, rel=1e-14)

    def test_magnetic_flip_leaves_electric(self, rng):
        mol = random_molecule(rng)
        img = rng.normal(size=(3, 3))
        assert gamma_el_from_img(img, dataclasses.replace(mol, m=-mol.m)) == gamma_el_from_img(img, mol)


class TestVacuumRate:
    def test_zero_dipole(self):
        mol = TransitionDipoles([0, 0, 0], [1e-23, 0, 0], OMEGA)
        assert gamma_vacuum(mol) == 0.0

    def test_cubic_frequency_scaling(self):
        m1 = TransitionDipoles([DEBYE, 0, 0], [0, 0, 0], 1.0e15)
        m2 = TransitionDipoles([DEBYE, 0, 0], [0, 0, 0], 2.0e15)
        assert gamma_vacuum(m2) == pytest.approx(8.0 * gamma_vacuum(m1), rel=1e-14)

    def test_debye_frozen_value(self):
        # 40-digit evaluation for |d| = 1 D, omega = 2.36e15 rad/s
        mol = TransitionDipoles([DEBYE, 0, 0], [0, 0, 0], 2.36e15)
        assert gamma_vacuum(mol) == pytest.approx(616788.44398322459, rel=1e-13)


class TestDegreeOfDiscrimination:
    def test_zero_and_unity(self):
        assert degree_of_discrimination(0.0, 5.0) == 0.0
        assert degree_of_discrimination(5.0, 5.0) == 1.0

    def test_zero_denominator(self):
        with pytest.raises(PhysicsError, match="non-discriminating rate is zero"):
            degree_of_discrimination(1.0, 0.0)

    def test_bulk_compact_quotient(self):
        """The bulk s_disc is -6 kappa R/(c |d|^2) to leading order in kappa,
        with the cubic factor 1 + kappa^2/(3 n_r^2) exact."""
        eps, mu, kap = 2.25, 1.0, 0.05
        med = MediumResponse(eps, mu, kap, OMEGA)
        mol = TransitionDipoles([DEBYE, 0, 0], [1e-23j, 0, 0], OMEGA, isotropic=True)
        b = rates_bulk(med, mol)
        assert b.s_disc == degree_of_discrimination(b.gamma_ch, b.gamma_el)
        n_r = med.n_r.real
        leading = -6.0 * kap * rotatory_strength(mol) / (CONSTANTS.c * mol.d_norm_sq)
        assert b.s_disc == pytest.approx(leading * (1 + kap**2 / (3 * n_r**2)), rel=1e-12)
        assert abs(b.s_disc / leading - 1.0) <= 1.01 * kap**2 / (3 * n_r**2)


class TestUnitsAudit:
    def test_bulk_rates_scale_as_omega_cubed(self, rng):
        lam = 3.0
        for _ in range(10):
            med = random_lossless_medium(rng)
            mol = random_molecule(rng, omega=med.omega, isotropic=True)
            med2 = MediumResponse(med.eps, med.mu, med.kappa, med.omega * lam)
            mol2 = TransitionDipoles(mol.d, mol.m, mol.omega_ik * lam, isotropic=True)
            assert gamma_ch_bulk(med2, mol2) == pytest.approx(lam**3 * gamma_ch_bulk(med, mol), rel=1e-12)
            assert gamma_el_bulk(med2, mol2) == pytest.approx(lam**3 * gamma_el_bulk(med, mol), rel=1e-12)

    def test_mirror_rates_scale_as_omega_cubed(self, rng):
        from chipurcell import Handedness, Limit, PlanarGeometry, rates_mirror

        lam = 2.0
        mol = random_molecule(rng, isotropic=True)
        z = 4e-7
        for limit in (Limit.RETARDED, Limit.NONRETARDED):
            g1 = PlanarGeometry(z_m=z, handedness=Handedness.RIGHT)
            g2 = PlanarGeometry(z_m=z / lam, handedness=Handedness.RIGHT)
            mol2 = TransitionDipoles(mol.d, mol.m, mol.omega_ik * lam, isotropic=True)
            with np.errstate(all="ignore"):
                import warnings

                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    r1 = rates_mirror(g1, mol, limit)
                    r2 = rates_mirror(g2, mol2, limit)
            assert r2.gamma_ch == pytest.approx(lam**3 * r1.gamma_ch, rel=1e-12)
