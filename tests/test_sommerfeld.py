import dataclasses
import inspect
import warnings

import numpy as np
import pytest

from chipurcell.errors import QuadratureError
from chipurcell.sommerfeld import QuadratureSpec, _gk15, integrate


def zero(k):
    return np.zeros_like(k, dtype=complex)


def channel(f):
    """The one-channel integrand of an elementwise function f."""
    return lambda k: f(k)[None]


def tail(z):
    """Seeds for a tail decaying like exp(-2 k z): where the decay reaches
    e^-u, up to the e^-40 end, as the planar path seeds its decay."""
    return [u / (2.0 * z) for u in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 28.0, 40.0)]


def test_constant_integrand_exact():
    res = integrate(channel(lambda k: zero(k) + 1.0), [0.0, 2.0], QuadratureSpec())
    assert res.converged
    assert res.value[0] == pytest.approx(2.0, rel=1e-14)


def test_zero_integrand():
    res = integrate(channel(zero), [0.0, 2.0], QuadratureSpec())
    assert res.converged
    assert res.value[0] == 0.0
    res = integrate(channel(zero), tail(1.0), QuadratureSpec())
    assert res.converged
    assert res.value[0] == 0.0
    # a zero channel meets its zero tolerance without dividing by it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate(lambda k: np.array([zero(k), np.exp(2j * k)]), [0.0, 2.0], QuadratureSpec())
    assert res.converged
    assert res.value[0] == 0.0 and res.err_estimate[0] == 0.0
    # next to a narrow peak that needs refining, a zero channel under its
    # zero tolerance neither stops nor reorders the refinement of the peak
    w, spec = 4000.0, QuadratureSpec(rel_tol=1e-10)
    peak = lambda k: 1.0 / (1.0 + w * (k - 0.3) ** 2) + 0.0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate(lambda k: np.array([zero(k), peak(k)]), [0.0, 1.0], spec)
    exact = (np.arctan(np.sqrt(w) * 0.7) + np.arctan(np.sqrt(w) * 0.3)) / np.sqrt(w)
    assert res.converged and res.value[0] == 0.0
    assert abs(res.value[1] - exact) <= spec.rel_tol * exact
    assert res.panels_used == integrate(channel(peak), [0.0, 1.0], spec).panels_used


@pytest.mark.parametrize("k0z", [0.1, 10.0, 100.0])
def test_oscillatory_phase_matches_antiderivative(k0z):
    # int_0^k0 e^{2ikz} dk = (e^{2ik0z} - 1)/(2iz)
    k0 = 1.0
    z = k0z / k0
    spec = QuadratureSpec(rel_tol=1e-10)
    res = integrate(channel(lambda k: np.exp(2j * k * z)), [0.0, k0], spec)
    exact = (np.exp(2j * k0 * z) - 1.0) / (2j * z)
    assert res.converged
    assert abs(res.value[0] - exact) <= 1e-8 * abs(exact)


def test_evanescent_exponential():
    z = 1.0
    res = integrate(channel(lambda k: np.exp(-2.0 * k * z)), tail(z), QuadratureSpec())
    assert res.converged
    assert res.value[0].real == pytest.approx(0.5, rel=1e-10)
    assert res.value[0].imag == 0.0


def test_evanescent_power_weighted():
    # int_0^inf k^2 e^{-2kz} dk = 2/(2z)^3
    for z in (0.3, 1.0, 4.0):
        res = integrate(channel(lambda k: k**2 * np.exp(-2.0 * k * z)), tail(z), QuadratureSpec())
        assert res.converged
        assert res.value[0].real == pytest.approx(1.0 / (4.0 * z**3), rel=1e-9)


def test_linearity(rng):
    z, k0 = 0.7, 3.0
    f = lambda k: np.exp(2j * k * z) * (1.0 + k)
    g = lambda k: np.cos(k) + 0.5j * k**2
    a, b = 1.7, -0.9
    spec = QuadratureSpec(rel_tol=1e-11)
    integral = lambda h: integrate(channel(h), [0.0, k0], spec).value[0]
    lhs = integral(lambda k: a * f(k) + b * g(k))
    rhs = a * integral(f) + b * integral(g)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def test_refinement_monotonicity():
    # halving rel_tol never worsens the error against a closed form
    # (down to the float noise floor); narrow peak so coarse runs see real error
    w = 4000.0
    f = lambda k: 1.0 / (1.0 + w * (k - 0.3) ** 2) + 0.0j
    exact = (np.arctan(np.sqrt(w) * 0.7) + np.arctan(np.sqrt(w) * 0.3)) / np.sqrt(w)
    errs = []
    for tol in (1e-2, 5e-3, 2.5e-3, 1e-4, 1e-6, 1e-10):
        res = integrate(channel(f), [0.0, 1.0], QuadratureSpec(rel_tol=tol, max_panels=4000))
        errs.append(abs(res.value[0] - exact))
    floor = 5e-15 * abs(exact)
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert fine <= max(coarse * (1.0 + 1e-12), floor)
    assert errs[-1] <= 1e-9 * abs(exact)


def test_determinism():
    f = channel(lambda k: np.exp(2j * k * 3.3) / (1.0 + k**2))
    r1 = integrate(f, [0.0, 2.0], QuadratureSpec())
    r2 = integrate(f, [0.0, 2.0], QuadratureSpec())
    assert np.array_equal(r1.value, r2.value) and np.array_equal(r1.err_estimate, r2.err_estimate)
    g = channel(lambda k: np.exp(-2.0 * k * 0.2) * np.sin(k))
    e1 = integrate(g, tail(0.2), QuadratureSpec())
    e2 = integrate(g, tail(0.2), QuadratureSpec())
    assert np.array_equal(e1.value, e2.value) and e1.panels_used == e2.panels_used


def test_converged_flag_honours_tolerance():
    # max_panels too small for a hard oscillatory target: converged=False
    spec = QuadratureSpec(rel_tol=1e-14, max_panels=3)
    res = integrate(channel(lambda k: np.exp(2j * k * 200.0)), [0.0, 1.0], spec)
    assert not res.converged
    assert res.err_estimate[0] > spec.rel_tol * abs(res.value[0])
    ok = integrate(channel(lambda k: np.exp(-2.0 * k)), tail(1.0), QuadratureSpec())
    assert ok.converged
    assert ok.err_estimate[0] <= 1e-8 * abs(ok.value[0]) + 1e-300


def test_vector_channels_each_meet_their_own_tolerance():
    # channels 1e8 apart: the small one needs far more panels than the large
    # one and must still reach rel_tol of its own value
    z, w = 3.0, 4000.0
    f = lambda k: np.array([np.exp(2j * k * z), 1e-8 / (1.0 + w * (k - 0.3) ** 2)])
    spec = QuadratureSpec(rel_tol=1e-10)
    res = integrate(f, [0.0, 1.0], spec)
    exact = [
        (np.exp(2j * z) - 1.0) / (2j * z),
        1e-8 * (np.arctan(np.sqrt(w) * 0.7) + np.arctan(np.sqrt(w) * 0.3)) / np.sqrt(w),
    ]
    assert res.converged and res.value.shape == res.err_estimate.shape == (2,)
    for got, want in zip(res.value, exact):
        assert abs(got - want) <= spec.rel_tol * abs(want)
    g = lambda k: np.array([np.exp(-2.0 * k * z), 1e8 * k**2 * np.exp(-2.0 * k * z)])
    res = integrate(g, tail(z), spec)
    for got, want in zip(res.value, [1.0 / (2.0 * z), 1e8 / (4.0 * z**3)]):
        assert abs(got - want) <= spec.rel_tol * abs(want)


@pytest.mark.parametrize("f, ends", [
    (lambda k: np.exp(2j * k * 3.3) / (1.0 + k**2), np.linspace(0.0, 2.0, 5)),
    (lambda k: np.exp(-2.0 * k * 0.2) * np.sin(k), np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 40.0])),
    (lambda k: np.exp(2j * k * 200.0), np.linspace(0.0, 1.0, 4)),  # far from resolved
], ids=["traveling", "evanescent", "unconverged"])
def test_gk15_channel_row_is_independent_of_companions(f, ends):
    # a channel's integral and error on each panel are bit-identical whether
    # it is integrated alone or between other channels
    a, b = ends[:-1], ends[1:]
    alone, alone_err = _gk15(channel(f), a, b)
    together, together_err = _gk15(lambda k: np.array([np.exp(-k) + 1j, f(k), 1e8 * f(k) * k]), a, b)
    assert alone.shape == alone_err.shape == (1, len(a))
    assert together.shape == together_err.shape == (3, len(a))
    assert np.array_equal(together[1], alone[0])
    assert np.array_equal(together_err[1], alone_err[0])


def test_gk15_matches_plain_kronrod_and_gauss_sums():
    """(I15, err) of each channel and panel against the rule written out in
    Python: I15 = h sum w15_j f_j and I7 = h sum w7_j f_(2j+1) with h the
    panel's half width, resabs = |h| sum w15_j |f_j|, and
    err = max(|I15 - I7|, resabs min(1, (200 |I15 - I7| / resabs)^1.5)),
    or |I15 - I7| where resabs is zero. Channels: random complex rows, a
    Lorentzian (whose rescaled error is below resabs), a cubic (whose two
    rules agree to round-off) and a zero row."""
    rng = np.random.default_rng(18)
    a, b = np.array([0.0, 0.3, 1.0, 2.5]), np.array([0.3, 1.0, 2.5, 40.0])
    noise = rng.normal(size=(2, 4, 15)) + 1j * rng.normal(size=(2, 4, 15))
    rows = lambda x: np.concatenate(
        [noise, [1j / (1 + 100 * (x - 0.5) ** 2), (1 + 2j) * x**3 - x + 0.5j, 0 * x]])
    i15, err = _gk15(rows, a, b)
    xgk = [0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
           0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0]
    wgk = [0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
           0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728]
    wg = [0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469]
    nodes = [-x for x in xgk] + xgk[-2::-1]
    w15, w7 = wgk + wgk[-2::-1], wg + wg[-2::-1]
    values = rows(0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * np.array(nodes))
    for c in range(values.shape[0]):
        for p in range(len(a)):
            h, f = 0.5 * (b[p] - a[p]), values[c, p].tolist()
            kronrod = h * sum(w * v for w, v in zip(w15, f))
            gauss = h * sum(w * v for w, v in zip(w7, f[1::2]))
            resabs = abs(h) * sum(w * abs(v) for w, v in zip(w15, f))
            raw = abs(kronrod - gauss)
            want = max(raw, resabs * min(1.0, (200.0 * raw / resabs) ** 1.5)) if resabs > 0 else raw
            # the sums differ by their rounding, a few ulp of resabs; the
            # rescaling amplifies an error in raw by at most 1.5 * 200^1.5
            assert abs(i15[c, p] - kronrod) <= 1e-14 * resabs
            assert abs(err[c, p] - want) <= 1e-11 * resabs
    assert not i15[-1].any() and not err[-1].any()
    assert (err[3] < 1e-6 * np.abs(i15[3])).all()  # the cubic is resolved


@pytest.mark.parametrize("integrate, seed_panels", [
    (lambda f: integrate(f, [0.0, 1.0], QuadratureSpec(rel_tol=1e-12)), 1),
    (lambda f: integrate(f, tail(0.5), QuadratureSpec(rel_tol=1e-12)), 8),
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
        return np.array([row * (c + 1) for c in range(channels)])

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


def test_too_many_seeds_are_refused_before_the_integrand_runs():
    # the panel budget is a hard cap: seeds beyond it are refused, not
    # integrated and not thinned out
    calls = []
    f = channel(lambda k: calls.append(k) or np.exp(-k) + 0j)
    with pytest.raises(QuadratureError, match="11 seed panels exceed max_panels = 10"):
        integrate(f, np.linspace(0.0, 1.0, 12), QuadratureSpec(max_panels=10))
    assert calls == []
    res = integrate(f, np.linspace(0.0, 1.0, 11), QuadratureSpec(max_panels=10))
    assert len(calls) == 1 and res.panels_used == 10


@pytest.mark.parametrize("field, value", [
    ("rel_tol", float("nan")),
    ("rel_tol", float("inf")),
])
def test_spec_rejects_out_of_range_or_non_finite(field, value):
    # a NaN tolerance, which no convergence test fails, would end as a
    # silently wrong integral
    with pytest.raises(ValueError, match=field):
        QuadratureSpec(**{field: value})


def test_spec_has_only_tolerance_and_budget():
    assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["rel_tol", "max_panels"]


def test_integrate_takes_only_integrand_seeds_and_spec():
    assert list(inspect.signature(integrate).parameters) == ["f", "seeds", "spec"]
