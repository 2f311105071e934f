"""Property-based invariants on the core algebra."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chipurcell import (
    CONSTANTS,
    CavityConfig,
    Handedness,
    Limit,
    MediumResponse,
    PlanarGeometry,
    TransitionDipoles,
    gamma_ch_from_curl,
    rates_bulk,
    rates_halfspace,
    rates_lfc,
    rates_mirror,
    rotatory_strength,
)
from chipurcell.rates import contract
from conftest import OMEGA

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
cvec = st.tuples(*[st.tuples(finite, finite) for _ in range(3)]).map(
    lambda t: np.array([complex(a, b) for a, b in t])
)


@given(cvec, cvec)
@settings(max_examples=200, deadline=None)
def test_rotatory_strength_antisymmetric_under_magnetic_flip(d, m):
    mol = TransitionDipoles(d * 1e-30, m * 1e-23, OMEGA)
    assert rotatory_strength(dataclasses.replace(mol, m=-mol.m)) == -rotatory_strength(mol)
    assert isinstance(rotatory_strength(mol), float)


# components away from the subnormal range, where no product underflows
moderate = st.floats(min_value=-1e3, max_value=1e3).filter(lambda v: v == 0 or abs(v) >= 1e-3)
ccomp = st.tuples(moderate, moderate).map(lambda t: complex(*t))
cvec3 = st.lists(ccomp, min_size=3, max_size=3).map(np.array)
tensors = (st.lists(moderate, min_size=9, max_size=9) | st.lists(ccomp, min_size=9, max_size=9)).map(
    lambda v: np.array(v).reshape(3, 3))


def exact_sum(terms) -> tuple:
    """The sum of the products of each term's complex factors, in exact
    rational arithmetic, as (re, im) Fractions."""
    re = im = Fraction(0)
    for factors in terms:
        pr, pi = Fraction(1), Fraction(0)
        for z in factors:
            zr, zi = Fraction(z.real), Fraction(z.imag)
            pr, pi = pr * zr - pi * zi, pr * zi + pi * zr
        re, im = re + pr, im + pi
    return re, im


@given(cvec3, cvec3, tensors, st.booleans())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_contract_is_the_explicit_sum(a, b, t, isotropic):
    """contract equals sum_ij a_i t_ij b_j*, or for an isotropic molecule
    (1/3) Tr t sum_i a_i b_i*, to 4 ulp of the summed magnitudes, for real
    and complex t."""
    mol = TransitionDipoles(a, b, OMEGA, isotropic)
    got = complex(contract(mol, mol.d, t, mol.m))
    if isotropic:
        re, im = exact_sum((t[k, k], a[i], b[i].conjugate()) for k in range(3) for i in range(3))
        re, im = re / 3, im / 3
        size = abs(np.diag(t)).sum() * (abs(a) * abs(b)).sum() / 3.0
    else:
        re, im = exact_sum((a[i], t[i, j], b[j].conjugate()) for i in range(3) for j in range(3))
        size = abs(a) @ abs(t) @ abs(b)
    assert math.hypot(float(Fraction(got.real) - re), float(Fraction(got.imag) - im)) <= 4 * np.spacing(size)


@given(cvec, cvec, finite, finite)
@settings(max_examples=100, deadline=None)
def test_chiral_contraction_real_linear(d, m, a, b):
    from chipurcell import CONSTANTS

    # float64 cannot represent the contraction when the largest product of
    # scaled dipole components is subnormal: d = (0, 0, 1.56e-270j) with
    # m = (0, 0, 1) leaves it about one significant bit
    d_max, m_max = np.abs(d).max(), np.abs(m).max()
    assume(d_max == 0 or m_max == 0 or d_max * 1e-30 * m_max * 1e-23 >= np.finfo(float).tiny)
    mol = TransitionDipoles(d * 1e-30, m * 1e-23, OMEGA)
    rng = np.random.default_rng(7)
    t1 = rng.normal(size=(3, 3))
    t2 = rng.normal(size=(3, 3))
    g = lambda t: gamma_ch_from_curl(t, mol)
    lhs = g(a * t1 + b * t2)
    rhs = a * g(t1) + b * g(t2)
    # noise floor of the contraction itself (cancellation among O(mag) terms),
    # from overflow- and underflow-free norms of the unscaled dipoles
    norm = lambda v: np.hypot.reduce(np.abs(v))
    pref = 4 * CONSTANTS.mu0 * OMEGA / CONSTANTS.hbar
    mag = (
        pref * norm(d) * norm(m) * (1e-30 * 1e-23)
        * (np.abs(t1).max() + np.abs(t2).max()) * (1.0 + abs(a) + abs(b))
    )
    assert abs(lhs - rhs) <= 1e-12 * mag + 1e-300


@given(
    st.floats(min_value=1.0, max_value=10.0),
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=-0.3, max_value=0.3),
    # an int, a float, numpy scalars or a complex
    st.sampled_from([math.ceil, float, np.float64, np.complex128, complex]),
)
@settings(max_examples=200, deadline=None)
def test_wave_number_sum_rule(eps, mu, kappa, number):
    med = MediumResponse(number(eps), number(mu), number(kappa), OMEGA)
    assert all(type(v) is complex for v in (med.eps, med.mu, med.kappa))
    assert abs(med.k_plus + med.k_minus - 2 * med.n_r * med.k0) <= 1e-12 * abs(2 * med.n_r * med.k0)
    if med.kappa == 0.0:
        assert med.k_plus == med.k_minus


def cube_rotations():
    """The 24 proper rotations of the cube, the signed permutation matrices
    with determinant +1. Their mean of R^T T R is (Tr T / 3) I for every 3x3
    T, so the mean of a rate over the rotated molecules is its exact
    orientation average."""
    rots = []
    for perm, signs in itertools.product(itertools.permutations(range(3)),
                                         itertools.product((1.0, -1.0), repeat=3)):
        r = np.zeros((3, 3))
        r[range(3), perm] = signs
        if np.linalg.det(r) > 0:
            rots.append(r)
    assert len(rots) == 24
    return rots


K0 = OMEGA / CONSTANTS.c
LOSSLESS = MediumResponse(2.25, 1.0, 0.05, OMEGA)
ABSORBING = MediumResponse(2.25 + 0.1j, 1.0, 0.05 + 0.001j, OMEGA)


def _mirror(k0z, limit):
    geom = PlanarGeometry(z_m=k0z / K0, handedness=Handedness.RIGHT)
    return lambda mol: rates_mirror(geom, mol, limit)


def _halfspace(med, k0z, limit):
    geom = PlanarGeometry(z_m=k0z / K0, medium=med)
    return lambda mol: rates_halfspace(geom, mol, limit)


@pytest.mark.parametrize("rates", [
    lambda mol: rates_bulk(LOSSLESS, mol),
    lambda mol: rates_lfc(CavityConfig(0.01 / K0, LOSSLESS), mol),
    lambda mol: rates_lfc(CavityConfig(0.01 / K0, ABSORBING), mol),
    _mirror(100.0, Limit.RETARDED),
    _mirror(0.01, Limit.NONRETARDED),
    _mirror(1.0, Limit.NUMERIC),
    _halfspace(ABSORBING, 100.0, Limit.RETARDED),
    _halfspace(LOSSLESS, 0.01, Limit.NONRETARDED),
    _halfspace(LOSSLESS, 1.0, Limit.NUMERIC),
    _halfspace(ABSORBING, 1.0, Limit.NUMERIC),
], ids=["bulk", "lfc-lossless", "lfc-absorbing", "mirror-retarded", "mirror-nonretarded",
        "mirror-numeric", "halfspace-retarded", "halfspace-nonretarded",
        "halfspace-numeric-lossless", "halfspace-numeric-absorbing"])
def test_isotropic_rate_is_exact_orientation_average(rates, mol_aniso):
    """Every rate of an isotropic molecule equals the mean of its rates over
    the cube-rotated copies (R d, R m) of the same anisotropic molecule."""
    iso = rates(TransitionDipoles(mol_aniso.d, mol_aniso.m, OMEGA, isotropic=True))
    rotated = [rates(TransitionDipoles(r @ mol_aniso.d, r @ mol_aniso.m, OMEGA))
               for r in cube_rotations()]
    for name in ("gamma_ch", "gamma_el"):
        values = np.array([getattr(b, name) for b in rotated])
        scale = max(np.abs(values).max(), abs(getattr(iso, name)))
        assert abs(values.mean() - getattr(iso, name)) <= 1e-12 * scale, name
