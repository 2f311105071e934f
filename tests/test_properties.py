"""Property-based invariants on the core algebra."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chipurcell import (
    MediumResponse,
    TransitionDipoles,
    gamma_ch_from_curl,
    rotatory_strength,
    wave_numbers,
)
from conftest import OMEGA

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
cvec = st.tuples(*[st.tuples(finite, finite) for _ in range(3)]).map(
    lambda t: np.array([complex(a, b) for a, b in t])
)


@given(cvec, cvec)
@settings(max_examples=200, deadline=None)
def test_rotatory_strength_antisymmetric_under_magnetic_flip(d, m):
    mol = TransitionDipoles(d * 1e-30, m * 1e-23, OMEGA)
    assert rotatory_strength(mol.flipped()) == -rotatory_strength(mol)
    assert isinstance(rotatory_strength(mol), float)


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
)
@settings(max_examples=200, deadline=None)
def test_wave_number_sum_rule(eps, mu, kappa):
    med = MediumResponse(eps, mu, kappa, OMEGA)
    wn = wave_numbers(med)
    assert abs(wn.k_plus + wn.k_minus - 2 * wn.n_r * wn.k0) <= 1e-12 * abs(2 * wn.n_r * wn.k0)
    if kappa == 0.0:
        assert wn.k_plus == wn.k_minus
