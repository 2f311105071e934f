import dataclasses
import inspect
import warnings

import numpy as np
import pytest

from chipurcell.errors import QuadratureError
from chipurcell.sommerfeld import QuadratureSpec, _gk15, integrate, tabulate
from oracles import qk15_nodes, qk15_panel


def zero(k):
    return np.zeros_like(k, dtype=complex)


def channel(f):
    """The one-channel integrand of an elementwise function f."""
    return lambda k: tabulate(f(k)[None])


def channels(f):
    """The integrand of a function f whose rows are its channels' values."""
    return lambda k: tabulate(f(k))


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
        res = integrate(channels(lambda k: np.array([zero(k), np.exp(2j * k)])), [0.0, 2.0], QuadratureSpec())
    assert res.converged
    assert res.value[0] == 0.0 and res.err_estimate[0] == 0.0
    # next to a narrow peak that needs refining, a zero channel under its
    # zero tolerance neither stops nor reorders the refinement of the peak
    w, spec = 4000.0, QuadratureSpec(rel_tol=1e-10)
    peak = lambda k: 1.0 / (1.0 + w * (k - 0.3) ** 2) + 0.0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate(channels(lambda k: np.array([zero(k), peak(k)])), [0.0, 1.0], spec)
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
    # int_0^inf k^2 e^{-2kz} dk = 2/(2z)^3, with the exponential in the
    # integrand or as the integral's decay
    for z in (0.3, 1.0, 4.0):
        for res in (integrate(channel(lambda k: k**2 * np.exp(-2.0 * k * z)), tail(z), QuadratureSpec()),
                    integrate(channel(lambda k: k**2), tail(z), QuadratureSpec(), -2.0 * z)):
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
    f = channels(lambda k: np.array([np.exp(2j * k * z), 1e-8 / (1.0 + w * (k - 0.3) ** 2)]))
    spec = QuadratureSpec(rel_tol=1e-10)
    res = integrate(f, [0.0, 1.0], spec)
    exact = [
        (np.exp(2j * z) - 1.0) / (2j * z),
        1e-8 * (np.arctan(np.sqrt(w) * 0.7) + np.arctan(np.sqrt(w) * 0.3)) / np.sqrt(w),
    ]
    assert res.converged and res.value.shape == res.err_estimate.shape == (2,)
    for got, want in zip(res.value, exact):
        assert abs(got - want) <= spec.rel_tol * abs(want)
    g = channels(lambda k: np.array([np.exp(-2.0 * k * z), 1e8 * k**2 * np.exp(-2.0 * k * z)]))
    res = integrate(g, tail(z), spec)
    for got, want in zip(res.value, [1.0 / (2.0 * z), 1e8 / (4.0 * z**3)]):
        assert abs(got - want) <= spec.rel_tol * abs(want)


@pytest.mark.parametrize("f, ends", [
    (lambda k: np.exp(2j * k * 3.3) / (1.0 + k**2), np.linspace(0.0, 2.0, 5)),
    (lambda k: np.exp(-2.0 * k * 0.2) * np.sin(k), np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 40.0])),
    (lambda k: np.exp(2j * k * 200.0), np.linspace(0.0, 1.0, 4)),  # far from resolved
], ids=["traveling", "evanescent", "unconverged"])
@pytest.mark.parametrize("decay", [0.0, -0.37])
def test_gk15_channel_row_is_independent_of_companions(f, ends, decay):
    # a channel's integral and error on each panel are bit-identical whether
    # it is integrated alone or between other channels (four of them, as
    # the planar integrand has), at any decay, and wherever the panel is in
    # its round: the panels reversed, or each a round of its own
    a, b = ends[:-1], ends[1:]
    alone, alone_err = _gk15(channel(f), a, b, None, decay)
    together = channels(lambda k: np.array([np.exp(-k) + 1j, f(k), 1e8 * f(k) * k, k + 0j]))
    rows, rows_err = _gk15(together, a, b, None, decay)
    assert alone.shape == alone_err.shape == (1, len(a))
    assert rows.shape == rows_err.shape == (4, len(a))
    assert np.array_equal(rows[1], alone[0])
    assert np.array_equal(rows_err[1], alone_err[0])
    reversed_, reversed_err = _gk15(together, a[::-1].copy(), b[::-1].copy(), None, decay)
    assert np.array_equal(reversed_[:, ::-1], rows) and np.array_equal(reversed_err[:, ::-1], rows_err)
    for p in range(len(a)):
        own, own_err = _gk15(together, a[p:p + 1], b[p:p + 1], None, decay)
        assert np.array_equal(own[:, 0], rows[:, p]) and np.array_equal(own_err[:, 0], rows_err[:, p])


def test_gk15_matches_plain_kronrod_and_gauss_sums():
    """(I15, err) of each channel and panel against the rule written out in
    scalar loops (``oracles.qk15_panel``). Channels: random complex rows, a
    Lorentzian (whose rescaled error is below resabs), a cubic (whose two
    rules agree to round-off) and a zero row."""
    rng = np.random.default_rng(18)
    a, b = np.array([0.0, 0.3, 1.0, 2.5]), np.array([0.3, 1.0, 2.5, 40.0])
    noise = rng.normal(size=(2, 4, 15)) + 1j * rng.normal(size=(2, 4, 15))
    values = []
    rows = lambda x: values.append(np.concatenate(
        [noise, [1j / (1 + 100 * (x - 0.5) ** 2), (1 + 2j) * x**3 - x + 0.5j, 0 * x]])) or tabulate(values[0])
    i15, err = _gk15(rows, a, b)
    values = values[0]
    for c in range(values.shape[0]):
        for p in range(len(a)):
            kronrod, want, resabs = qk15_panel(values[c, p], a[p], b[p])
            # the sums differ by their rounding, a few ulp of resabs; the
            # rescaling amplifies an error in raw by at most 1.5 * 200^1.5
            assert abs(i15[c, p] - kronrod) <= 1e-14 * resabs
            assert abs(err[c, p] - want) <= 1e-11 * resabs
    assert not i15[-1].any() and not err[-1].any()
    assert (err[3] < 1e-6 * np.abs(i15[3])).all()  # the cubic is resolved


@pytest.mark.parametrize("decay", [0.0, -0.11, 0.02])
def test_gk15_matches_the_loop_reference_on_random_panels(decay):
    """Nodes, value and error estimate of every channel of f(x) e^{decay x}
    on 40 random panels against ``oracles.qk15_panel`` of the values of
    f(x) e^{decay x}, with tolerances fixed by the float type
    alone. Let eps be the machine epsilon; resabs = h sum wgk |f| is the sum
    of the magnitudes of a panel's I15 terms. A node is a + (b - a)(1 + x)/2,
    three roundings from centre + h x. A 15-term complex sum of rounded
    products is off an exactly rounded one by at most (sqrt(2) 15 + 2) eps
    times the sum of its terms' magnitudes, so I15 by 24 eps resabs, and
    I15 - I7 (whose weights are below 1.05 wgk) by 32 eps resabs. The
    rescaled estimate moves by at most 300 times an error in |I15 - I7|
    (1.5 * 200^1.5 / 200^0.5, its slope at ratio 1) and otherwise stays
    within 1e-13 of itself. Channels: two smooth ones, a zero one (value and
    error exactly 0), and, last, an oscillating one, whose ratio
    200 |I15 - I7| / resabs is at least 1 on most panels."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(2203)
    a = np.sort(rng.uniform(0.0, 50.0, 40))
    b = a + rng.uniform(1e-3, 20.0, 40)
    nodes = []

    def f(x):
        return np.array([
            np.exp(-0.3 * x) * (1.0 + 2j * np.sin(x)),
            1.0 / (1.0 + (x - 20.0) ** 2) + 0.5j * x**2,
            0.0 * x,
            np.exp(40j * x),
        ])

    i15, err = _gk15(lambda x: nodes.append(x) or tabulate(f(x)), a, b, None, decay)
    assert i15.shape == err.shape == (4, 40)
    ratio_above_one = 0
    for p in range(len(a)):
        want_nodes = qk15_nodes(a[p], b[p])
        assert np.all(np.abs(nodes[0][p] - want_nodes) <= 4 * eps * b[p])
        for c in range(4):
            value, want, resabs = qk15_panel(f(nodes[0][p])[c] * np.exp(decay * nodes[0][p]), a[p], b[p])
            assert abs(i15[c, p] - value) <= 24 * eps * resabs
            assert abs(err[c, p] - want) <= 1e-13 * want + 300 * 32 * eps * resabs
        # the oscillating channel's: err = max(raw, resabs) exactly where the ratio is >= 1
        ratio_above_one += want >= resabs > 0
    assert not i15[2].any() and not err[2].any()
    assert ratio_above_one >= 20


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
        return tabulate(np.array([row * (c + 1) for c in range(channels)]))

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
    # a NaN max_panels passed a plain `< 1` check and switched the panel cap
    # off: an integral ran to millions of panels and out of memory
    for max_panels in (float("nan"), float("inf"), 2.5):
        with pytest.raises(ValueError, match="max_panels must be a whole number >= 1"):
            QuadratureSpec(max_panels=max_panels)
    assert QuadratureSpec(max_panels=100.0).max_panels == 100.0


def test_a_whole_float_panel_cap_binds_as_its_integer():
    # max_panels = 6.0 passed the spec and ended in a TypeError (a float
    # slice bound) once the cap bound the refinement
    f = channel(lambda k: np.sqrt(np.abs(k - 0.3)) * np.sin(50.0 * k) + 0j)
    as_int, as_float = (integrate(f, [0.0, 1.0], QuadratureSpec(rel_tol=1e-14, max_panels=cap)) for cap in (6, 6.0))
    assert type(QuadratureSpec(max_panels=6.0).max_panels) is int
    assert as_float.panels_used == as_int.panels_used == 6 and not as_float.converged
    assert as_float.value.tobytes() == as_int.value.tobytes()


def test_panels_split_to_float_resolution_end_unconverged():
    # a panel one float wide has no midpoint strictly inside: the
    # refinement ends with it unsplit, whatever its error
    f = channel(lambda k: np.where(np.arange(15) % 2, 1.0, -1.0) + 0.0 * k + 0j)
    res = integrate(f, [1.0, np.nextafter(1.0, 2.0)], QuadratureSpec())
    assert res.panels_used == 1 and not res.converged


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


@pytest.mark.parametrize("seeds", [
    [0.0, np.inf],  # was a NaN value, not converged, with two numpy warnings
    [-np.inf, 0.0],
    [0.0, np.nan, 1.0],
    [1.0, 0.5, 2.0],  # was "converged" through a reversed panel that is never split
    [2.0, 1.0],  # descending
    [0.0, 1.0, 1.0, 2.0],  # was a zero-width panel
    [0.0],  # was 0 from no panels
    [],
    0.0,
    [[0.0, 1.0], [2.0, 3.0]],
], ids=["inf_end", "inf_start", "nan", "reversed_panel", "descending", "zero_width", "one_seed", "no_seed",
        "scalar", "two_dimensional"])
def test_malformed_seeds_are_refused_before_the_integrand_runs(seeds):
    # a panel is [a, b] with a < b, both finite: anything else has no
    # integral the rule or the refinement can give
    calls = []
    f = channel(lambda k: calls.append(k) or np.exp(-k) + 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="seeds must be at least two finite floats in strictly ascending order"):
            integrate(f, seeds, QuadratureSpec())
    assert calls == []


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


def test_integrate_takes_only_integrand_seeds_spec_and_decay():
    assert list(inspect.signature(integrate).parameters) == ["f", "seeds", "spec", "decay"]
