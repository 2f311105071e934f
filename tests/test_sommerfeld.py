import warnings

import numpy as np
import pytest

from chipurcell.sommerfeld import QuadratureSpec, integrate_evanescent, integrate_traveling


def zero(k):
    return np.zeros_like(k, dtype=complex)


def test_constant_integrand_exact():
    res = integrate_traveling(lambda k: zero(k) + 1.0, k0=2.0, z=0.0, spec=QuadratureSpec())
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-14)


def test_zero_integrand():
    res = integrate_traveling(zero, k0=2.0, z=1.0)
    assert res.converged
    assert res.value == 0.0
    res = integrate_evanescent(zero, z=1.0)
    assert res.converged
    assert res.value == 0.0
    # a zero channel meets a zero tolerance without dividing by it
    exact = QuadratureSpec(abs_floor=0.0)
    assert integrate_traveling(zero, 2.0, 1.0, exact).converged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate_traveling(lambda k: np.array([zero(k), np.exp(2j * k)]), 2.0, 1.0, exact)
    assert res.converged
    assert res.value[0] == 0.0 and res.err_estimate[0] == 0.0
    # next to a narrow peak that needs refining, a zero channel under a zero
    # tolerance neither stops nor reorders the refinement of the peak
    w, spec = 4000.0, QuadratureSpec(rel_tol=1e-10, abs_floor=0.0)
    peak = lambda k: 1.0 / (1.0 + w * (k - 0.3) ** 2) + 0.0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate_traveling(lambda k: np.array([zero(k), peak(k)]), 1.0, 0.0, spec)
    exact = (np.arctan(np.sqrt(w) * 0.7) + np.arctan(np.sqrt(w) * 0.3)) / np.sqrt(w)
    assert res.converged and res.value[0] == 0.0
    assert abs(res.value[1] - exact) <= spec.rel_tol * exact
    assert res.panels_used == integrate_traveling(peak, 1.0, 0.0, spec).panels_used


@pytest.mark.parametrize("k0z", [0.1, 10.0, 100.0])
def test_oscillatory_phase_matches_antiderivative(k0z):
    # int_0^k0 e^{2ikz} dk = (e^{2ik0z} - 1)/(2iz)
    k0 = 1.0
    z = k0z / k0
    spec = QuadratureSpec(rel_tol=1e-10)
    res = integrate_traveling(lambda k: np.exp(2j * k * z), k0, z, spec)
    exact = (np.exp(2j * k0 * z) - 1.0) / (2j * z)
    assert res.converged
    assert abs(res.value - exact) <= 1e-8 * abs(exact)


def test_evanescent_exponential():
    z = 1.0
    res = integrate_evanescent(lambda k: np.exp(-2.0 * k * z), z)
    assert res.converged
    assert res.value.real == pytest.approx(0.5, rel=1e-10)
    assert res.value.imag == 0.0


def test_evanescent_power_weighted():
    # int_0^inf k^2 e^{-2kz} dk = 2/(2z)^3
    for z in (0.3, 1.0, 4.0):
        res = integrate_evanescent(lambda k: k**2 * np.exp(-2.0 * k * z), z)
        assert res.converged
        assert res.value.real == pytest.approx(1.0 / (4.0 * z**3), rel=1e-9)


def test_linearity(rng):
    z, k0 = 0.7, 3.0
    f = lambda k: np.exp(2j * k * z) * (1.0 + k)
    g = lambda k: np.cos(k) + 0.5j * k**2
    a, b = 1.7, -0.9
    spec = QuadratureSpec(rel_tol=1e-11)
    lhs = integrate_traveling(lambda k: a * f(k) + b * g(k), k0, z, spec).value
    rhs = a * integrate_traveling(f, k0, z, spec).value + b * integrate_traveling(g, k0, z, spec).value
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def test_refinement_monotonicity():
    # halving rel_tol never worsens the error against a closed form
    # (down to the float noise floor); narrow peak so coarse runs see real error
    w = 4000.0
    f = lambda k: 1.0 / (1.0 + w * (k - 0.3) ** 2) + 0.0j
    exact = (np.arctan(np.sqrt(w) * 0.7) + np.arctan(np.sqrt(w) * 0.3)) / np.sqrt(w)
    errs = []
    for tol in (1e-2, 5e-3, 2.5e-3, 1e-4, 1e-6, 1e-10):
        res = integrate_traveling(f, 1.0, 0.0, QuadratureSpec(rel_tol=tol, max_panels=4000))
        errs.append(abs(res.value - exact))
    floor = 5e-15 * abs(exact)
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert fine <= max(coarse * (1.0 + 1e-12), floor)
    assert errs[-1] <= 1e-9 * abs(exact)


def test_determinism():
    f = lambda k: np.exp(2j * k * 3.3) / (1.0 + k**2)
    r1 = integrate_traveling(f, 2.0, 3.3)
    r2 = integrate_traveling(f, 2.0, 3.3)
    assert r1.value == r2.value and r1.err_estimate == r2.err_estimate
    g = lambda k: np.exp(-2.0 * k * 0.2) * np.sin(k)
    e1 = integrate_evanescent(g, 0.2)
    e2 = integrate_evanescent(g, 0.2)
    assert e1.value == e2.value and e1.panels_used == e2.panels_used


def test_converged_flag_honours_tolerance():
    # max_panels too small for a hard oscillatory target: converged=False
    spec = QuadratureSpec(rel_tol=1e-14, max_panels=3)
    res = integrate_traveling(lambda k: np.exp(2j * k * 200.0), 1.0, 200.0, spec)
    assert not res.converged
    assert res.err_estimate > spec.rel_tol * abs(res.value)
    ok = integrate_evanescent(lambda k: np.exp(-2.0 * k), 1.0)
    assert ok.converged
    assert ok.err_estimate <= 1e-8 * abs(ok.value) + 1e-300


def test_vector_channels_each_meet_their_own_tolerance():
    # channels 1e8 apart: the small one needs far more panels than the large
    # one and must still reach rel_tol of its own value
    z, w = 3.0, 4000.0
    f = lambda k: np.array([np.exp(2j * k * z), 1e-8 / (1.0 + w * (k - 0.3) ** 2)])
    spec = QuadratureSpec(rel_tol=1e-10)
    res = integrate_traveling(f, 1.0, z, spec)
    exact = [
        (np.exp(2j * z) - 1.0) / (2j * z),
        1e-8 * (np.arctan(np.sqrt(w) * 0.7) + np.arctan(np.sqrt(w) * 0.3)) / np.sqrt(w),
    ]
    assert res.converged and res.value.shape == res.err_estimate.shape == (2,)
    for got, want in zip(res.value, exact):
        assert abs(got - want) <= spec.rel_tol * abs(want)
    g = lambda k: np.array([np.exp(-2.0 * k * z), 1e8 * k**2 * np.exp(-2.0 * k * z)])
    res = integrate_evanescent(g, z, spec)
    for got, want in zip(res.value, [1.0 / (2.0 * z), 1e8 / (4.0 * z**3)]):
        assert abs(got - want) <= spec.rel_tol * abs(want)


@pytest.mark.parametrize("integrate, f", [
    (lambda f: integrate_traveling(f, 2.0, 3.3), lambda k: np.exp(2j * k * 3.3) / (1.0 + k**2)),
    (lambda f: integrate_evanescent(f, 0.2), lambda k: np.exp(-2.0 * k * 0.2) * np.sin(k)),
    (lambda f: integrate_traveling(f, 1.0, 200.0, QuadratureSpec(rel_tol=1e-14, max_panels=3)),
     lambda k: np.exp(2j * k * 200.0)),
], ids=["traveling", "evanescent", "unconverged"])
def test_one_channel_vector_matches_scalar(integrate, f):
    scalar = integrate(f)
    vector = integrate(lambda k: np.array([f(k)]))
    assert vector.value.shape == (1,)
    assert vector.value[0] == scalar.value
    assert vector.err_estimate[0] == scalar.err_estimate
    assert vector.panels_used == scalar.panels_used
    assert vector.converged == scalar.converged


@pytest.mark.parametrize("integrate, seed_panels", [
    (lambda f: integrate_traveling(f, 1.0, 0.0, QuadratureSpec(rel_tol=1e-12)), 1),
    (lambda f: integrate_evanescent(f, 0.5, QuadratureSpec(rel_tol=1e-12)), 8),
], ids=["traveling", "evanescent"])
@pytest.mark.parametrize("channels", [1, 3])
def test_integrand_sees_one_panel_of_nodes_per_call(integrate, seed_panels, channels):
    # each call carries the 15 nodes of every panel of one round: the seed
    # panels, then both halves of each panel split in a round, and a split
    # adds one panel to panels_used
    shapes = []

    def f(k):
        shapes.append(np.shape(k))
        row = np.exp(-k) / (1.0 + 400.0 * (k - 0.3) ** 2)
        return row if channels == 1 else np.array([row * (c + 1) for c in range(channels)])

    res = integrate(f)
    assert res.converged and res.panels_used > seed_panels
    assert all(len(s) == 2 and s[1] == 15 for s in shapes)
    assert shapes[0] == (seed_panels, 15)
    evaluated = sum(s[0] for s in shapes)
    assert evaluated == 2 * res.panels_used - seed_panels
    assert len(shapes) < evaluated


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_panels=0)
    with pytest.raises(ValueError):
        integrate_evanescent(zero, z=0.0)


@pytest.mark.parametrize("field, value", [
    ("evanescent_cutoff_u", 0.0),
    ("evanescent_cutoff_u", -5.0),
    ("evanescent_cutoff_u", float("nan")),
    ("evanescent_cutoff_u", float("inf")),
    ("abs_floor", -1e-300),
    ("abs_floor", float("nan")),
    ("abs_floor", float("inf")),
    ("rel_tol", float("nan")),
    ("rel_tol", float("inf")),
])
def test_spec_rejects_out_of_range_or_non_finite(field, value):
    # each would end as a silently wrong integral: a zero or reversed
    # evanescent range, or a NaN tolerance that no convergence test fails
    with pytest.raises(ValueError, match=field):
        QuadratureSpec(**{field: value})
