"""The abstract's claims, stated on the exact pathway in the form and range
in which they hold.

The abstract says the chiral effect is greatest for large transition
frequencies, large rotatory strength and strong cross-susceptibility, and
that short distances enhance it in front of a half-space. For an isotropic
molecule on the numeric half-space, s_disc is linear in the rotatory
strength R and odd in kappa, and |s_disc| grows at least a hundredfold as
k0 z falls from 10 to 1. In the bulk, gamma_ch grows as omega^3 and its
magnitude with |kappa|. Nothing is pinned below k0 z 0.1: there the
absorbing medium's |s_disc| already falls (4.3e-5 at k0 z 1, 3.9e-5 at
0.1), and the quadrature's near-field precision is still open.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chipurcell import (
    CONSTANTS,
    Limit,
    MediumResponse,
    PlanarGeometry,
    TransitionDipoles,
    rates_bulk,
    rates_halfspace,
)
from conftest import OMEGA

K0 = OMEGA / CONSTANTS.c
D, M = 1e-30, 1e-24j  # C m, A m^2: a quarter-phase pair along x
MEDIA = {
    "lossless": (2.25, 1.0, 0.05),
    "absorbing": (2.25 + 0.1j, 1.0, 0.05 + 0.001j),
    "plasmonic": (-2.0 + 0.1j, 1.0, 0.05),  # a branch cut in the strip: the path carries a hairpin
}
DISTANCES = (10.0, 1.0, 0.1)  # k0 z


def molecule(m: complex = M, omega: float = OMEGA) -> TransitionDipoles:
    return TransitionDipoles([D, 0.0, 0.0], [m, 0.0, 0.0], omega, isotropic=True)


def s_disc(medium: tuple, k0z: float, m: complex = M) -> float:
    geom = PlanarGeometry(z_m=k0z / K0, medium=MediumResponse(*medium, OMEGA))
    return rates_halfspace(geom, molecule(m), Limit.NUMERIC).s_disc


@given(st.sampled_from(sorted(MEDIA)), st.sampled_from(DISTANCES),
       st.floats(min_value=-10.0, max_value=10.0).filter(lambda v: abs(v) >= 0.1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_halfspace_discrimination_is_linear_in_the_rotatory_strength(name, k0z, scale):
    assert s_disc(MEDIA[name], k0z, scale * M) == pytest.approx(scale * s_disc(MEDIA[name], k0z), rel=1e-13)


@given(st.sampled_from(sorted(MEDIA)), st.sampled_from(DISTANCES))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_halfspace_discrimination_is_odd_in_kappa(name, k0z):
    eps, mu, kappa = MEDIA[name]
    assert s_disc((eps, mu, -kappa), k0z) == pytest.approx(-s_disc(MEDIA[name], k0z), rel=1e-12)


@pytest.mark.parametrize("name", sorted(MEDIA))
def test_short_distances_enhance_the_halfspace_discrimination(name):
    """|s_disc| at k0 z 1 is about 1,000 times its value at 10 on each medium."""
    assert abs(s_disc(MEDIA[name], 1.0)) >= 100.0 * abs(s_disc(MEDIA[name], 10.0))


lossless = st.tuples(st.floats(min_value=1.0, max_value=10.0), st.floats(min_value=0.5, max_value=2.0))


@given(lossless, st.floats(min_value=-0.5, max_value=0.5), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_bulk_chiral_rate_scales_as_omega_cubed(eps_mu, kappa, scale):
    def gamma_ch(omega):
        return rates_bulk(MediumResponse(*eps_mu, kappa, omega), molecule(omega=omega)).gamma_ch

    assert gamma_ch(scale * OMEGA) == pytest.approx(scale**3 * gamma_ch(OMEGA), rel=1e-13, abs=0.0)


@given(lossless, st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.0, max_value=0.5), st.booleans())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_bulk_chiral_rate_rises_with_the_cross_susceptibility(eps_mu, a, b, negative):
    weak, strong = sorted((a, b))
    assume(strong > 1.001 * weak)
    sign = -1.0 if negative else 1.0

    def gamma_ch(kappa):
        return rates_bulk(MediumResponse(*eps_mu, sign * kappa, OMEGA), molecule()).gamma_ch

    assert abs(gamma_ch(strong)) > abs(gamma_ch(weak))
