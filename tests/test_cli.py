import cmath
import copy
import itertools
import json
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipurcell import CONSTANTS, MediumResponse
from chipurcell.cli import (
    EXIT_OK,
    EXIT_PHYSICS,
    EXIT_QUADRATURE,
    EXIT_SCHEMA,
    FRESNEL_CSV_HEADER,
    RATE_CSV_HEADER,
    SWEEP_CSV_HEADER,
    _FRESNEL_POLE_ROW,
    _FRESNEL_ROW,
    _RATE_ROW,
    _SWEEP_ROW,
    _fmt,
    main,
    run_fresnel,
    run_scenario,
    run_sweep,
)
from chipurcell.errors import PhysicsError, QuadratureError, SchemaError
from conftest import package_env
from oracles import ORACLE_MEDIA, chiral_reflections

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).parent / "golden"


def load(name):
    return json.loads((SCENARIOS / name).read_text())


def rate(tmp_path, scenario, *flags):
    """The exit code of ``chipurcell rate`` on ``scenario``, written to a
    file (NaN and inf as the tokens NaN and Infinity)."""
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    return main(["rate", *flags, "--config", str(cfg)])


BULK = load("bulk_lossless.json")
MIRROR = load("mirror_retarded.json")
HALFSPACE = load("halfspace_nonretarded.json")
NUMERIC = {**HALFSPACE, "method": {"limit": "numeric"}}
AUTO = {**HALFSPACE, "method": {"limit": "auto"}}
LFC = {**BULK, "geometry": {"kind": "bulk_lfc", "radius_a": 1.0e-9}}
LORENTZ = {"model": "lorentz", "strength": 1e-30, "omega0": 1, "gamma": 0}
# undamped models off resonance: a lossless medium
LORENTZ_BULK = {**BULK, "medium": {
    "eps": {"model": "lorentz", "background": 1.5, "strength": 0.8, "omega0": 5.0e15, "gamma": 0.0},
    "mu": [1.0, 0.0],
    "kappa": {"model": "lorentz_chiral", "strength": 1e-3, "omega0": 5.0e15, "gamma": 0.0},
}}


class TestRunScenario:
    def test_achiral_bulk_zeros_chiral_outputs(self):
        scen = copy.deepcopy(BULK)
        scen["medium"]["kappa"] = [0.0, 0.0]
        b, _ = run_scenario(scen)
        assert b.gamma_ch == 0.0
        assert b.s_disc == 0.0

    def test_mirror_handedness_flip_negates(self):
        right, _ = run_scenario(MIRROR)
        scen = copy.deepcopy(MIRROR)
        scen["geometry"]["handedness"] = "left"
        left, _ = run_scenario(scen)
        assert left.gamma_ch == -right.gamma_ch

    def test_halfspace_comparison_field_reports_honestly(self):
        b, ann = run_scenario(HALFSPACE)
        comp = ann["comparison"]
        # documented: the near-field closed form is not reproduced by quadrature
        assert comp["rel_diff_gamma_ch"] > 0.5
        assert np.isfinite(comp["numeric_gamma_ch"])

    def test_mirror_comparison_close(self):
        scen = copy.deepcopy(MIRROR)
        scen["method"] = {"limit": "nonretarded", "compare_numeric": True}
        scen["geometry"]["z_m"] = 1.0e-9  # k0 z ~ 0.01
        b, ann = run_scenario(scen)
        assert ann["comparison"]["rel_diff_gamma_ch"] <= 0.03

    def test_auto_limit_selection(self):
        """With no method.limit the mirror and the half-space take the exact
        pathway at every distance: k0 z 0.03, 1 and 30 alike."""
        for base in (HALFSPACE, MIRROR):
            scen = copy.deepcopy(base)
            scen["method"] = {}
            for z_m in (3.0e-9, 1.0e-7, 3.0e-6):
                scen["geometry"]["z_m"] = z_m
                _, ann = run_scenario(scen)
                assert ann["limit"] == "numeric"

    @pytest.mark.parametrize("medium", [*ORACLE_MEDIA.values(), (12.0, 1.0, 3.5), None],
                             ids=[*ORACLE_MEDIA, "eps12_kappa3.5", "mirror"])
    def test_auto_is_the_numeric_pathway(self, medium):
        """``auto`` equals an explicit ``numeric`` bit for bit, result or
        error, from k0 z 1e-4 to 1e6."""
        if medium is None:
            base = MIRROR
        else:
            pairs = {key: [complex(v).real, complex(v).imag] for key, v in zip(("eps", "mu", "kappa"), medium)}
            base = {**HALFSPACE, "medium": pairs}
        k0 = base["molecule"]["omega_ik"] / CONSTANTS.c

        def outcome(limit, k0z):
            scen = {**base, "geometry": {**base["geometry"], "z_m": k0z / k0}, "method": {"limit": limit}}
            try:
                b, _ = run_scenario(scen)
            except (PhysicsError, QuadratureError) as exc:
                return type(exc).__name__, str(exc)
            return [getattr(b, key).hex() for key in ("gamma_el", "gamma_ch", "gamma_vac", "gamma_total", "s_disc")]

        for k0z in (1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6):
            assert outcome("auto", k0z) == outcome("numeric", k0z), k0z

    def test_auto_limit_takes_numeric_for_lossy_near_field(self, tmp_path, capsys):
        # the nonretarded closed form refuses a lossy medium: auto took it
        # at k0 z = 0.03 and exited 3 (LosslessRequiredError)
        scen = copy.deepcopy(HALFSPACE)
        scen["medium"]["eps"] = [2.25, 0.1]
        scen["method"] = {}
        code = rate(tmp_path, scen, "--json")
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK and out["limit"] == "numeric"
        numeric, _ = run_scenario({**scen, "method": {"limit": "numeric"}})
        for key in ("gamma_el", "gamma_ch", "gamma_vac", "gamma_total", "s_disc"):
            assert out[key].hex() == getattr(numeric, key).hex()

    def test_json_round_trip_is_bit_exact(self, tmp_path, capsys):
        assert rate(tmp_path, BULK, "--json") == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        b, _ = run_scenario(BULK)
        assert out["gamma_ch"] == b.gamma_ch
        assert out["gamma_total"] == b.gamma_total
        assert out["s_disc"] == b.s_disc

    def test_schema_errors(self):
        from chipurcell.errors import SchemaError

        bad = copy.deepcopy(BULK)
        del bad["molecule"]["d"]
        with pytest.raises(SchemaError):
            run_scenario(bad)
        bad2 = copy.deepcopy(BULK)
        bad2["geometry"]["kind"] = "torus"
        with pytest.raises(SchemaError):
            run_scenario(bad2)

    def test_lorentz_models(self):
        scen = copy.deepcopy(BULK)
        scen["medium"]["eps"] = {
            "model": "lorentz", "background": 1.5, "strength": 0.8,
            "omega0": 5.0e15, "gamma": 1.0e13,
        }
        scen["medium"]["kappa"] = {
            "model": "lorentz_chiral", "strength": 1e-3, "omega0": 5.0e15, "gamma": 1.0e13,
        }
        # lossy now: bulk closed forms demand lossless -> physics error
        from chipurcell.errors import PhysicsError

        with pytest.raises(PhysicsError):
            run_scenario(scen)
        # with zero damping the model is lossless on resonance-free ground
        scen["medium"]["eps"]["gamma"] = 0.0
        scen["medium"]["kappa"]["gamma"] = 0.0
        b, _ = run_scenario(scen)
        assert b.gamma_ch != 0.0


class TestSweep:
    def test_mirror_distance_sweep_has_sine_nodes(self, tmp_path):
        scen = copy.deepcopy(MIRROR)
        lines = run_sweep(scen, "geometry.z_m", 1.0e-6, 3.0e-6, 257, log=False)
        assert lines[0] == SWEEP_CSV_HEADER
        rows = [ln.split(",") for ln in lines[1:]]
        z = np.array([float(r[0]) for r in rows])
        gch = np.array([float(r[2]) for r in rows])
        # sign changes at the nodes of sin(2 w z / c): z_node = j pi c/(2 w)
        w = 3.0e15
        c = 299792458.0
        nodes = [j * np.pi * c / (2 * w) for j in range(1, 70)]
        nodes = [zn for zn in nodes if z[0] < zn < z[-1]]
        crossings = z[:-1][np.sign(gch[:-1]) != np.sign(gch[1:])]
        assert len(crossings) == len(nodes)
        dz = z[1] - z[0]
        for zn in nodes:
            assert np.min(np.abs(crossings - zn)) <= dz

    def test_kappa_sweep_odd_and_linear_through_origin(self):
        scen = copy.deepcopy(BULK)
        lines = run_sweep(scen, "medium.kappa.re", -0.1, 0.1, 41, log=False)
        rows = [ln.split(",") for ln in lines[1:]]
        k = np.array([float(r[0]) for r in rows])
        gch = np.array([float(r[2]) for r in rows])
        # exactly odd through the origin
        assert np.allclose(gch + gch[::-1], 0.0, atol=1e-9 * np.max(np.abs(gch)))
        assert gch[20] == 0.0  # kappa = 0 grid point
        # linear up to the kappa^2/(3 n_r^2) cubic correction carried by the rate
        coeffs, residuals, *_ = np.polyfit(k, gch, 1, full=True)
        ss_tot = np.sum((gch - gch.mean()) ** 2)
        r2 = 1.0 - (residuals[0] / ss_tot if len(residuals) else 0.0)
        assert r2 >= 1.0 - 1e-6
        cubic = np.polyfit(k, gch, 3, full=True)[1]
        assert (cubic[0] if len(cubic) else 0.0) <= 1e-20 * ss_tot

    def test_single_point_sweep_equals_rate(self):
        scen = copy.deepcopy(BULK)
        lines = run_sweep(scen, "medium.kappa.re", 0.05, 0.05, 1, log=False)
        b, _ = run_scenario(BULK)
        row = lines[1].split(",")
        assert float(row[2]) == b.gamma_ch
        assert float(row[1]) == b.gamma_el

    @pytest.mark.parametrize("scenario, param, lo, hi", [
        (BULK, "medium.kappa.re", -0.1, 0.1),
        (BULK, "medium.eps.im", -0.1, 0.1),
        (MIRROR, "geometry.z_m", 1.0e-6, 3.0e-6),
        (NUMERIC, "molecule.omega_ik", 1e15, 4e15),
        (LORENTZ_BULK, "medium.eps.omega0", 4e15, 6e15),
    ], ids=["complex_re", "complex_im", "distance", "frequency", "model_field"])
    def test_a_sweep_leaves_its_scenario_and_runs_each_point(self, scenario, param, lo, hi):
        """A sweep copies only the objects on its swept path: the caller's
        scenario is unchanged, and each row is the single run_scenario of
        the scenario with that one field set."""
        scen = copy.deepcopy(scenario)
        lines = run_sweep(scen, param, lo, hi, 5, log=False)
        assert scen == scenario
        *parents, leaf = param.split(".")
        for line, x in zip(lines[1:], np.linspace(lo, hi, 5)):
            single = copy.deepcopy(scenario)
            node = single
            for key in parents if leaf in ("re", "im") else [*parents, leaf]:
                parent, node = node, node[key]
            if leaf in ("re", "im"):
                node[leaf == "im"] = float(x)
            else:
                parent[leaf] = float(x)
            try:
                b, _ = run_scenario(single)
            except (PhysicsError, QuadratureError) as exc:  # eps.im != 0: a bulk host must be lossless
                assert line == "%.17g,nan,nan,nan,nan,none,error:%s" % (x, type(exc).__name__)
            else:
                row = (x, b.gamma_el, b.gamma_ch, b.gamma_vac, b.s_disc, b.method.value, "ok")
                assert line == "%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s" % row

    def test_failed_points_are_flagged(self):
        scen = copy.deepcopy(HALFSPACE)
        scen["medium"]["eps"] = [2.25, 0.1]  # lossy: nonretarded closed form refuses
        lines = run_sweep(scen, "geometry.z_m", 1e-9, 2e-9, 3, log=False)
        for ln in lines[1:]:
            assert ln.endswith("error:LosslessRequiredError")
            assert "nan" in ln

    def test_overflow_points_are_flagged(self):
        # eps 1e200 and 1e300 overflow n_r**5 of the cavity factors: the
        # OverflowError aborted the whole sweep
        lines = run_sweep(copy.deepcopy(LFC), "medium.eps.re", 1e100, 1e300, 3, log=True)
        rows = [ln.split(",") for ln in lines[1:]]
        assert [row[-1] for row in rows] == ["ok"] + ["error:PhysicsError"] * 2
        assert all(np.isfinite(float(v)) for v in rows[0][1:5])

    def test_nonpositive_radius_points_are_flagged(self):
        # a radius_a <= 0 aborted the whole sweep with a ValueError
        lines = run_sweep(copy.deepcopy(LFC), "geometry.radius_a", -1e-9, 1e-9, 3, log=False)
        assert [ln.rsplit(",", 1)[1] for ln in lines[1:]] == ["error:PhysicsError"] * 2 + ["ok"]

    def test_log_grid_monotone(self):
        scen = copy.deepcopy(BULK)
        lines = run_sweep(scen, "molecule.omega_ik", 1e15, 1e16, 7, log=True)
        om = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert om == sorted(om)
        assert om[0] == pytest.approx(1e15) and om[-1] == pytest.approx(1e16)

    def test_bad_param_path(self):
        from chipurcell.errors import SchemaError

        with pytest.raises(SchemaError):
            run_sweep(copy.deepcopy(BULK), "geometry.nope", 0, 1, 2, log=False)


class TestFresnelTable:
    def test_achiral_cross_column_zero(self):
        lines = run_fresnel(2.25, 1.0, 0.0, 3e15, 3.0, 31)
        assert lines[0] == FRESNEL_CSV_HEADER
        flagged = [ln for ln in lines[1:] if not ln.endswith("ok")]
        # exactly the grazing-incidence pole row (k_par = k0) is flagged
        assert len(flagged) == 1 and flagged[0].startswith("1,")
        for ln in lines[1:]:
            f = ln.split(",")
            if f[-1] != "ok":
                continue
            assert float(f[5]) == 0.0 and float(f[6]) == 0.0  # r_sp

    def test_energy_bound_rows(self):
        lines = run_fresnel(2.25, 1.0, 0.05, 3e15, 0.99, 40)
        for ln in lines[1:]:
            f = [float(v) for v in ln.split(",")[:-1]]
            rss = complex(f[1], f[2])
            rps = complex(f[7], f[8])
            assert abs(rss) ** 2 + abs(rps) ** 2 <= 1.0 + 1e-12

    @pytest.mark.parametrize("eps, kappa", [(2.25, 0.05), (2.25 + 0.1j, 0.05 + 0.001j)])
    def test_ok_rows_match_oracle(self, eps, kappa):
        k0 = MediumResponse(eps, 1.0, kappa, 3e15).k0
        for ln in run_fresnel(eps, 1.0, kappa, 3e15, 3.0, 31)[1:]:
            f = ln.split(",")
            if f[-1] != "ok":
                continue
            k_perp = np.sqrt(k0 * k0 - (float(f[0]) * k0) ** 2 + 0j)
            r_ss, r_pp, r_sp = chiral_reflections(eps, 1.0, kappa, k0, k_perp)
            want = [r_ss, r_pp, r_sp, -r_sp]
            got = [complex(float(f[i]), float(f[i + 1])) for i in (1, 3, 5, 7)]
            scale = max(abs(w) for w in want)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * scale

    def test_reciprocity_rows(self):
        lines = run_fresnel(2.0, 1.1, 0.03, 3e15, 4.0, 17)
        ok_rows = [ln for ln in lines[1:] if ln.endswith("ok")]
        assert len(ok_rows) >= 15
        for ln in ok_rows:
            f = [float(v) for v in ln.split(",")[:-1]]
            assert f[7] == -f[5] and f[8] == -f[6]


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# signed zeros, nan, infinities, subnormals, any bit pattern and any float
CELL = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -2.2250738585072009e-308]),
    st.integers(min_value=0, max_value=2**64 - 1).map(_bits_to_float),
    st.floats(),
)


@given(st.lists(CELL, min_size=9, max_size=9))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_schema_rows_equal_per_cell_join(cells):
    # each schema's format string must render a row as the per-cell join
    # did, for Python floats and for the numpy scalars the cells once were
    def join(*parts):
        return ",".join(p if isinstance(p, str) else _fmt(p) for p in parts)

    for cast in (float, np.float64):
        row = [cast(v) for v in cells]
        assert _RATE_ROW % ("bulk", "closed_form", "static", *row[:5]) == join(
            "bulk", "closed_form", "static", *row[:5])
        assert _SWEEP_ROW % (*row[:5], "closed_form", "ok") == join(*row[:5], "closed_form", "ok")
        assert _FRESNEL_ROW % tuple(row) == join(*row, "ok")
        assert _FRESNEL_POLE_ROW % row[0] == join(row[0], *[float("nan")] * 8, "error:PoleError")


class TestExitCodesAndGolden:
    @pytest.mark.parametrize("argv", [[], ["nope"]], ids=["no-command", "unknown-command"])
    def test_missing_or_unknown_command_is_argparse_usage_error(self, capsys, argv):
        # the subcommand is required: argparse refuses before main dispatches
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: chipurcell" in capsys.readouterr().err

    def test_schema_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["rate", "--config", str(cfg)]) == EXIT_SCHEMA
        scen = copy.deepcopy(BULK)
        del scen["molecule"]
        assert rate(tmp_path, scen) == EXIT_SCHEMA
        # bytes that are not UTF-8 ended in a UnicodeDecodeError traceback (exit 1)
        cfg3 = tmp_path / "not_utf8.json"
        cfg3.write_bytes(b"\xff\xfe{}")
        assert main(["rate", "--config", str(cfg3)]) == EXIT_SCHEMA
        capsys.readouterr()

    def test_physics_exit_code(self, tmp_path, capsys):
        scen = copy.deepcopy(BULK)
        scen["medium"]["eps"] = [2.25, 0.3]  # lossy bulk closed form
        assert rate(tmp_path, scen) == EXIT_PHYSICS
        capsys.readouterr()

    @pytest.mark.parametrize("eps", [[2.25, 0.0], [2.25, 0.1]], ids=["lossless", "absorbing"])
    def test_large_cavity_exits_physics(self, tmp_path, capsys, eps):
        # k0 a = 10: the lossless host printed rates under limit small_radius
        # (exit 0), only the absorbing one was refused
        scen = copy.deepcopy(LFC)
        scen["medium"]["eps"] = eps
        scen["geometry"]["radius_a"] = 1.0e-6
        code = rate(tmp_path, scen)
        assert "k0*a < 0.1" in capsys.readouterr().err
        assert code == EXIT_PHYSICS

    @pytest.mark.parametrize("field, model", [
        ("eps", {"model": "lorentz", "background": 1.5, "strength": 0.8}),
        ("kappa", {"model": "lorentz_chiral", "strength": 1e-3}),
    ])
    def test_undamped_lorentz_on_resonance_exits_physics(self, tmp_path, capsys, field, model):
        # the model's denominator omega0^2 - omega^2 - i gamma omega vanishes
        scen = copy.deepcopy(BULK)
        scen["medium"][field] = {**model, "omega0": scen["molecule"]["omega_ik"], "gamma": 0.0}
        code = rate(tmp_path, scen)
        assert f"medium.{field}" in capsys.readouterr().err
        assert code == EXIT_PHYSICS

    @pytest.mark.parametrize("value", [0.0, -1e-9])
    @pytest.mark.parametrize("base, field", [(LFC, "radius_a"), (HALFSPACE, "z_m")], ids=["lfc", "halfspace"])
    def test_nonpositive_length_exits_physics(self, tmp_path, capsys, base, field, value):
        # a radius_a <= 0 ended in a ValueError traceback (exit 1), where a
        # z_m <= 0 exited 3
        scen = copy.deepcopy(base)
        scen["geometry"][field] = value
        code = rate(tmp_path, scen)
        assert capsys.readouterr().err.startswith(f"error (physics): {field} must be positive")
        assert code == EXIT_PHYSICS

    def test_quadrature_exit_code(self, tmp_path, capsys):
        scen = copy.deepcopy(HALFSPACE)
        scen["method"] = {"limit": "numeric", "quadrature": {"rel_tol": 1e-13, "max_panels": 2}}
        scen["geometry"]["z_m"] = 4.0e-6
        code = rate(tmp_path, scen)
        capsys.readouterr()
        assert code == EXIT_QUADRATURE

    @pytest.mark.parametrize("base, medium", [
        (NUMERIC, {"eps": [0.0, 0.0], "mu": [1.0, 0.0], "kappa": [0.05, 0.0]}),
        (NUMERIC, {"eps": [2.25, 0.0], "mu": [0.0, 0.0], "kappa": [0.05, 0.0]}),
        ({**HALFSPACE, "geometry": {"kind": "halfspace", "z_m": 1.5e-6}, "method": {"limit": "retarded"}},
         {"eps": [0.0, 0.0], "mu": [1.0, 0.0], "kappa": [0.05, 0.0]}),
        (BULK, {"eps": [0.0, 0.0], "mu": [1.0, 0.0], "kappa": [0.05, 0.0]}),
        # lossless, Re n_r = 0: the chiral closed form divides by it
        (LFC, {"eps": [1e-9, 0.0], "mu": [-2.0, 0.0], "kappa": [12.0, 0.0]}),
        # kappa = Re n_r: k+^2 = -1e-18 k0^2 is lost in k+^2 - k0^2
        (NUMERIC, {"eps": [12.0, 1e-9], "mu": [12.0, 1e-9], "kappa": [12.0, 0.0]}),
        (NUMERIC, {"eps": [1.0, 0.0], "mu": [1.0, 0.0], "kappa": [1.0, 0.0]}),
        # absorbing cavity lossy only in mu: its electric form vanishes, and
        # gamma_el_lfc raises
        (LFC, {"eps": [2.25, 0.0], "mu": [1.0, 0.1], "kappa": [0.05, 0.0]}),
        # finite inputs whose arithmetic leaves the float range: n_r**5 of
        # the cavity factors, |2 eps + 1|**2 of the absorbing cavity, w0**2
        # of a Lorentz model, (1 + eps/mu)**2 and the quartic of the strip
        # poles, and the retarded reflections (NaN rates)
        (LFC, {"eps": [1e200, 0.0], "mu": [1.0, 0.0], "kappa": [0.05, 0.0]}),
        (LFC, {"eps": [1e300, 1.0], "mu": [1.0, 0.0], "kappa": [0.05, 0.0]}),
        (BULK, {"eps": {**LORENTZ, "omega0": 1e200}, "mu": [1.0, 0.0], "kappa": [0.05, 0.0]}),
        (NUMERIC, {"eps": [1e300, 0.0], "mu": [1.0, 0.0], "kappa": [0.05, 0.0]}),
        (NUMERIC, {"eps": [1e160, 0.0], "mu": [1e100, 0.0], "kappa": [0.05, 0.0]}),
        (NUMERIC, {"eps": [1e-300, 0.0], "mu": [1.0, 0.0], "kappa": [0.05, 0.0]}),
        ({**HALFSPACE, "geometry": {"kind": "halfspace", "z_m": 1.5e-6}, "method": {"limit": "retarded"}},
         {"eps": [1e300, 0.0], "mu": [1.0, 0.0], "kappa": [0.05, 0.0]}),
    ], ids=["numeric-eps0", "numeric-mu0", "retarded-eps0", "bulk-eps0", "lfc-re-n0",
            "numeric-k-plus-lost", "numeric-k-plus-0", "lfc-lossy-mu-only", "lfc-overflow",
            "lfc-absorbing-overflow", "lorentz-overflow", "numeric-overflow", "numeric-quartic-overflow",
            "numeric-eps-tiny", "retarded-nan"])
    def test_degenerate_medium_exits_physics(self, tmp_path, capsys, base, medium):
        # each one ended in a ZeroDivisionError, LinAlgError or OverflowError
        # traceback (exit 1), in exit 0 with s_disc 0 (lfc-lossy-mu-only), or
        # in exit 0 with NaN rates, which the JSON output wrote as NaN
        # (retarded-nan)
        scen = copy.deepcopy(base)
        scen["medium"] = medium
        code, err = rate(tmp_path, scen), capsys.readouterr().err
        assert code == EXIT_PHYSICS
        assert err.startswith("error (physics):") and "Traceback" not in err

    @pytest.mark.parametrize("limit, z_m", [
        ("numeric", 1e-110), ("numeric", 1e-120), ("nonretarded", 1e-110),
    ])
    def test_mirror_beyond_the_float_range_exits_physics(self, tmp_path, capsys, limit, z_m):
        # the library now raises PhysicsError itself (NaN rates at numeric
        # 1e-110, a ZeroDivisionError at the others: z^3 underflows in the
        # nonretarded limit); the CLI still exits 3
        scen = {**MIRROR, "geometry": {**MIRROR["geometry"], "z_m": z_m}, "method": {"limit": limit}}
        code, err = rate(tmp_path, scen), capsys.readouterr().err
        assert code == EXIT_PHYSICS
        assert err.startswith("error (physics):") and "float range" in err and "Traceback" not in err

    def test_mode_resolved_cavity_at_zero_mu_is_a_pole(self, tmp_path, capsys):
        # f0_main divided by mu: "the arithmetic left the float range:
        # complex division by zero", still exit 3
        scen = {**LFC, "method": {"f0_source": "main"},
                "medium": {"eps": [2.25, 0.0], "mu": [0.0, 0.0], "kappa": [0.05, 0.0]}}
        code, err = rate(tmp_path, scen), capsys.readouterr().err
        assert code == EXIT_PHYSICS
        assert err.startswith("error (physics): cavity factors have a pole at") and "mu (2 eps + 1)" in err

    def test_breakdown_beyond_the_float_range_exits_physics(self, tmp_path, capsys):
        # |d|^2 of a 1e150 C m dipole overflows the electric rate to inf
        scen = copy.deepcopy(BULK)
        scen["molecule"]["d"] = [[1e150, 0.0], [0.0, 0.0], [0.0, 0.0]]
        code = rate(tmp_path, scen)
        assert capsys.readouterr().err.startswith("error (physics): the arithmetic left the float range")
        assert code == EXIT_PHYSICS

    def test_lossless_eps_minus_one_nonretarded_exits_ok(self, tmp_path, capsys):
        # eps = -1 is the pole of the quasi-static r_p; the near-field
        # electric rate divided by |eps + 1| and ended in a ZeroDivisionError
        # traceback (exit 1)
        scen = copy.deepcopy(HALFSPACE)
        scen["medium"] = {"eps": [-1.0, 0.0], "mu": [1.0, 0.0], "kappa": [0.05, 0.0]}
        code = rate(tmp_path, scen, "--json")
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert out["limit"] == "nonretarded"
        assert out["gamma_el"] == 0.0
        for key in ("gamma_el", "gamma_ch", "gamma_vac", "gamma_total", "s_disc"):
            assert np.isfinite(out[key])

    def test_achiral_cavity_mode_resolved_exits_ok_silently(self, tmp_path, capsys):
        # kappa = 0 with f0_source "main": f0_main warned on stderr that it
        # returned its kappa -> 0 limit; its one rational form is exact there
        scen = {**LFC, "method": {"f0_source": "main"},
                "medium": {"eps": [2.25, 0.0], "mu": [1.0, 0.0], "kappa": [0.0, 0.0]}}
        code = rate(tmp_path, scen, "--json")
        captured = capsys.readouterr()
        assert code == EXIT_OK and captured.err == ""
        out = json.loads(captured.out)
        assert out["gamma_ch"] == out["s_disc"] == 0.0
        assert out["gamma_total"] == out["gamma_el"] > 0

    @pytest.mark.parametrize("base", [
        BULK,
        LFC,
        MIRROR,
        {**MIRROR, "geometry": {**MIRROR["geometry"], "z_m": 1.0e-9}, "method": {"limit": "nonretarded"}},
        {**MIRROR, "method": {"limit": "numeric"}},
        {**HALFSPACE, "geometry": {"kind": "halfspace", "z_m": 1.5e-6}, "method": {"limit": "retarded"}},
        HALFSPACE,
        NUMERIC,
    ], ids=["bulk", "lfc", "mirror-retarded", "mirror-nonretarded", "mirror-numeric",
            "halfspace-retarded", "halfspace-nonretarded", "halfspace-numeric"])
    def test_zero_dipole_exits_physics(self, tmp_path, capsys, base):
        # s_disc divides by a rate that vanishes with d; this ended in a
        # ZeroDivisionError traceback, in exit 0 with s_disc NaN, or in exit 0
        # with s_disc 0
        scen = copy.deepcopy(base)
        scen["molecule"]["d"] = [[0.0, 0.0]] * 3
        code, err = rate(tmp_path, scen, "--json"), capsys.readouterr().err
        assert code == EXIT_PHYSICS
        assert err.startswith("error (physics):") and "Traceback" not in err

    def test_zero_eps_fresnel_table_exits_physics(self, tmp_path, capsys):
        code = main(["fresnel", "--eps", "0,0", "--mu", "1,0", "--kappa", "0.05,0", "--omega", "3e15",
                     "--kpar-max", "2", "--points", "3", "--csv", str(tmp_path / "t.csv")])
        assert capsys.readouterr().err.startswith("error (physics):")
        assert code == EXIT_PHYSICS

    @pytest.mark.parametrize("cutoff", [0.0, -5.0, float("nan")])
    def test_bad_evanescent_cutoff_exits_schema(self, tmp_path, capsys, cutoff):
        scen = copy.deepcopy(HALFSPACE)
        scen["method"] = {"limit": "numeric", "quadrature": {"evanescent_cutoff_u": cutoff}}
        code = rate(tmp_path, scen)
        assert "evanescent_cutoff_u" in capsys.readouterr().err
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("value", [[1.0], [1.0, "x"], [1, 2, 3], "2.25"])
    @pytest.mark.parametrize("field", ["medium.eps", "molecule.d[0]"])
    def test_malformed_complex_exits_schema(self, tmp_path, capsys, field, value):
        scen = copy.deepcopy(BULK)
        if field == "medium.eps":
            scen["medium"]["eps"] = value
        else:
            scen["molecule"]["d"][0] = value
        code, err = rate(tmp_path, scen), capsys.readouterr().err
        assert code == EXIT_SCHEMA
        assert field in err and "[re, im]" in err

    @pytest.mark.parametrize("base, path, value, field", [
        (HALFSPACE, "geometry.z_m", "abc", "geometry.z_m"),
        (LFC, "geometry.radius_a", "x", "geometry.radius_a"),
        (NUMERIC, "method.quadrature", {"rel_tol": "x"}, "method.quadrature.rel_tol"),
        (NUMERIC, "method.quadrature", {"max_panels": "x"}, "method.quadrature.max_panels"),
        # the spec has rel_tol and max_panels only: any other key, a removed
        # one or a typo, would otherwise be silently ignored
        (NUMERIC, "method.quadrature", {"abs_floor": 1e-300}, "abs_floor"),
        (NUMERIC, "method.quadrature", {"evanescent_cutoff_u": 40.0}, "evanescent_cutoff_u"),
        (NUMERIC, "method.quadrature", {"reltol": 1e-8}, "reltol"),
        # removed method keys are unknown fields
        (AUTO, "method.auto_thresholds", "ab", "method.auto_thresholds"),
        (AUTO, "method.auto_thresholds", [1], "method.auto_thresholds"),
        (MIRROR, "method.drreths_form", "metric", "method.drreths_form"),
        (LFC, "method.f0_source", "paper", "method.f0_source"),
        # non-finite numbers, which would run on into the physics and end in
        # exit 1, 3 or 4, or in a non-finite rate
        (NUMERIC, "molecule.omega_ik", float("inf"), "molecule.omega_ik"),
        (NUMERIC, "geometry.z_m", float("inf"), "geometry.z_m"),
        (NUMERIC, "medium.eps", [float("nan"), 0.0], "medium.eps"),
        (NUMERIC, "molecule.d", [[float("inf"), 0.0], [0.0, 0.0], [0.0, 0.0]], "molecule.d[0]"),
        # a dipole component is a number: a response model read at omega = 0
        # turned a strength of 1e-30 into a dipole of 1 C m
        (BULK, "molecule.d", [LORENTZ, [0.0, 0.0], [0.0, 0.0]], "molecule.d[0]"),
        (BULK, "molecule.m", [[0.0, 0.0], LORENTZ, [0.0, 0.0]], "molecule.m[1]"),
        (BULK, "medium.kappa", {"model": "lorentz_chiral", "strength": float("nan"),
                                "omega0": 5.0e15, "gamma": 0.0}, "medium.kappa.strength"),
        # each of these ran: a misspelt limit as the auto choice (here the
        # retarded closed form), a mirror's medium and a bulk radius_a
        # unread, a string flag as its truth value, and a fractional panel
        # cap rounded down
        ({**MIRROR, "method": {}}, "method.limt", "numeric", "method.limt"),
        (MIRROR, "medium", BULK["medium"], "medium"),
        (BULK, "geometry.radius_a", 1.0e-9, "geometry.radius_a"),
        (HALFSPACE, "molecule.isotropic", "false", "molecule.isotropic"),
        (HALFSPACE, "method.compare_numeric", "no", "method.compare_numeric"),
        (NUMERIC, "method.quadrature", {"max_panels": 2.9}, "method.quadrature.max_panels"),
        # a JSON bool is not a number: each of these ran with it as 0 or 1,
        # the mirror at z_m = true as a mirror at 1 m
        (MIRROR, "geometry.z_m", True, "geometry.z_m"),
        (BULK, "medium.mu", [True, False], "medium.mu"),
        (BULK, "medium.eps", True, "medium.eps"),
        (BULK, "molecule.omega_ik", True, "molecule.omega_ik"),
        (BULK, "molecule.d", [[True, 0.0], [0.0, 0.0], [0.0, 0.0]], "molecule.d[0]"),
        (LFC, "geometry.radius_a", True, "geometry.radius_a"),
        (LORENTZ_BULK, "medium.eps.strength", True, "medium.eps.strength"),
        (NUMERIC, "method.quadrature", {"max_panels": True}, "method.quadrature.max_panels"),
        # the fields of one kind are unknown in another
        (BULK, "method.limit", "numeric", "method.limit"),
        (LFC, "method.quadrature", {}, "method.quadrature"),
        (HALFSPACE, "geometry.handedness", "left", "geometry.handedness"),
        (MIRROR, "method.f0_source", "main", "method.f0_source"),
        # a field outside its object's set, in every object
        (BULK, "typo", 1.0, "typo"),
        (BULK, "molecule.typo", 1.0, "molecule.typo"),
        (BULK, "medium.typo", 1.0, "medium.typo"),
        (LORENTZ_BULK, "medium.eps.typo", 1.0, "medium.eps.typo"),
        (LORENTZ_BULK, "medium.kappa.typo", 1.0, "medium.kappa.typo"),
        (BULK, "geometry.typo", 1.0, "geometry.typo"),
        (LFC, "geometry.typo", 1.0, "geometry.typo"),
        (MIRROR, "geometry.typo", 1.0, "geometry.typo"),
        (HALFSPACE, "geometry.typo", 1.0, "geometry.typo"),
        (BULK, "method.typo", 1.0, "method.typo"),
        (LFC, "method.typo", 1.0, "method.typo"),
        (MIRROR, "method.typo", 1.0, "method.typo"),
        (HALFSPACE, "method.typo", 1.0, "method.typo"),
        (NUMERIC, "method.quadrature", {"typo": 1.0}, "method.quadrature.typo"),
        # a value of the right type that the schema or the physics refuses
        (BULK, "medium", 2.25, "medium: expected an object"),
        (BULK, "medium.eps", {"model": "drude"}, "medium.eps: unknown response model 'drude'"),
        (BULK, "molecule.d", [[1.0e-30, 0.0], [0.0, 0.0]], "molecule.d: expected a 3-element array"),
        (HALFSPACE, "method.limit", "exact", "method.limit: unknown value 'exact'"),
        (NUMERIC, "method.quadrature", {"rel_tol": 0.0}, "method.quadrature: rel_tol must be positive"),
        (MIRROR, "geometry.handedness", "up", "geometry.handedness: must be 'right' or 'left'"),
    ], ids=["z_m-string", "radius_a-string", "rel_tol-string", "max_panels-string",
            "quadrature-abs_floor", "quadrature-cutoff", "quadrature-typo",
            "thresholds-string", "thresholds-short", "drreths_form-unknown",
            "f0_source-unknown", "omega_ik-inf", "z_m-inf", "eps-nan", "d-inf", "d-model", "m-model",
            "lorentz-nan", "mirror-limit-typo", "mirror-medium", "bulk-radius_a",
            "isotropic-string", "compare_numeric-string", "max_panels-fraction",
            "z_m-bool", "mu-bool-pair", "eps-bool", "omega_ik-bool", "d-bool", "radius_a-bool",
            "lorentz-bool", "max_panels-bool",
            "bulk-limit", "lfc-quadrature", "halfspace-handedness", "mirror-f0_source",
            "extra-root", "extra-molecule", "extra-medium", "extra-lorentz", "extra-lorentz_chiral",
            "extra-geometry-bulk", "extra-geometry-bulk_lfc", "extra-geometry-mirror",
            "extra-geometry-halfspace", "extra-method-bulk", "extra-method-bulk_lfc",
            "extra-method-mirror", "extra-method-halfspace", "extra-quadrature",
            "medium-not-object", "model-unknown", "d-two-entries", "limit-unknown", "rel_tol-zero",
            "handedness-unknown"])
    def test_malformed_scalar_exits_schema(self, tmp_path, capsys, base, path, value, field):
        scen = copy.deepcopy(base)
        *parents, leaf = path.split(".")
        node = scen
        for key in parents:
            node = node[key]
        node[leaf] = value
        code = rate(tmp_path, scen)
        assert field in capsys.readouterr().err
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("base, path", [
        # a mirror without handedness was right-handed, which fixes the sign
        # of every chiral rate
        (MIRROR, "geometry.handedness"),
        (MIRROR, "geometry.z_m"),
        (LFC, "geometry.radius_a"),
        (HALFSPACE, "medium"),
        (BULK, "medium.kappa"),
        (BULK, "molecule.omega_ik"),
        (LORENTZ_BULK, "medium.eps.strength"),
        (LORENTZ_BULK, "medium.kappa.gamma"),
    ], ids=["mirror-handedness", "mirror-z_m", "lfc-radius_a", "halfspace-medium", "bulk-kappa",
            "bulk-omega_ik", "lorentz-strength", "lorentz_chiral-gamma"])
    def test_missing_field_exits_schema(self, tmp_path, capsys, base, path):
        scen = copy.deepcopy(base)
        *parents, leaf = path.split(".")
        node = scen
        for key in parents:
            node = node[key]
        del node[leaf]
        code = rate(tmp_path, scen)
        assert capsys.readouterr().err.startswith(f"error (schema): {path}: missing required field")
        assert code == EXIT_SCHEMA

    def test_malformed_dipole_names_its_path_once(self, tmp_path, capsys):
        # the dipole's own SchemaError was wrapped again by the molecule's:
        # "molecule: molecule.d[1]: complex values are ..."
        scen = copy.deepcopy(BULK)
        scen["molecule"]["d"][1] = [1.0]
        code = rate(tmp_path, scen)
        assert capsys.readouterr().err.startswith("error (schema): molecule.d[1]: complex values are")
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("args, message", [
        (["sweep", "--param", "molecule.omega"], "sweep param path 'molecule.omega': no field 'omega'"),
        (["sweep", "--param", "cavity.radius_a"], "sweep param path 'cavity.radius_a': no field 'cavity'"),
        (["sweep", "--param", "molecule.d"], "sweep param path 'molecule.d': target is not a scalar"),
        (["sweep", "--param", "molecule.omega_ik", "--points", "0"], "sweep requires points >= 1"),
        (["sweep", "--param", "molecule.omega_ik", "--from=-1e15", "--log"],
         "log-scale sweep requires positive endpoints"),
        (["fresnel", "--points", "1"], "fresnel requires points >= 2"),
        (["fresnel", "--eps", "2.25"], "--eps: expected RE,IM"),
    ], ids=["sweep-field", "sweep-parent", "sweep-not-scalar", "sweep-points", "sweep-log-negative",
            "fresnel-points", "fresnel-complex"])
    def test_bad_sweep_and_fresnel_arguments_exit_schema(self, tmp_path, capsys, args, message):
        command, *given = args
        defaults = {
            "sweep": ["--config", str(SCENARIOS / "bulk_lossless.json"), "--from", "1e15", "--to", "2e15",
                      "--points", "3"],
            "fresnel": ["--eps", "2.25,0", "--mu", "1,0", "--kappa", "0.05,0", "--omega", "3e15",
                        "--kpar-max", "2", "--points", "3"],
        }[command]
        code = main([command, *defaults, *given, "--csv", str(tmp_path / "t.csv")])  # the last value wins
        assert capsys.readouterr().err == f"error (schema): {message}\n"
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("flag, value", [
        ("--eps", "nan,0"), ("--kappa", "0,inf"), ("--omega", "inf"), ("--kpar-max", "nan"),
        ("--omega", "0"), ("--omega", "-3e15"),
    ])
    def test_non_finite_fresnel_argument_exits_schema(self, tmp_path, capsys, flag, value):
        # each one ended in a LAPACK error (exit 1) or in a table of NaN rows,
        # all flagged as poles (exit 0); a non-positive --omega, in the
        # medium's ValueError traceback (exit 1)
        args = {"--eps": "2.25,0", "--mu": "1,0", "--kappa": "0.05,0", "--omega": "3e15",
                "--kpar-max": "2", "--points": "3", "--csv": str(tmp_path / "t.csv"), flag: value}
        code = main(["fresnel", *(f"{k}={v}" for k, v in args.items())])  # "=" takes "-3e15"
        assert flag in capsys.readouterr().err
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("grid, flags", [
        (["--from=0", "--to=inf"], ["--to"]),
        (["--log", "--from=1e-9", "--to=inf"], ["--to"]),
        (["--from=nan", "--to=1"], ["--from"]),
        (["--from=-1.7e308", "--to=1.7e308"], ["--from", "--to"]),
    ], ids=["to-inf", "log-to-inf", "from-nan", "span-overflow"])
    def test_bad_sweep_endpoint_exits_schema(self, tmp_path, capsys, grid, flags):
        # each ended in exit 2 only when a NaN grid point reached the schema:
        # an infinite endpoint or span after numpy's RuntimeWarning, and the
        # log grid after running its first point
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--config", str(SCENARIOS / "bulk_lossless.json"), "--param", "medium.eps.im",
                         *grid, "--points", "3", "--csv", str(out)])
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags)
        assert code == EXIT_SCHEMA
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario,golden",
        [
            ("bulk_lossless.json", "bulk_lossless.csv"),
            ("mirror_retarded.json", "mirror_retarded.csv"),
            ("halfspace_nonretarded.json", "halfspace_nonretarded.csv"),
        ],
    )
    def test_golden_rate_csv_byte_identical(self, tmp_path, capsys, scenario, golden):
        out = tmp_path / "out.csv"
        code = main(["rate", "--config", str(SCENARIOS / scenario), "--csv", str(out), "--json"])
        capsys.readouterr()
        assert code == EXIT_OK
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("argv, golden", [
        # kappa 0: r_ps = -r_sp holds -0 cells, and k_par = k0 is the grazing pole row
        (["fresnel", "--eps", "2.25,0", "--mu", "1,0", "--kappa", "0,0", "--omega", "3e15",
          "--kpar-max", "3", "--points", "31"], "fresnel_achiral.csv"),
        (["fresnel", "--eps", "2.25,0.1", "--mu", "1.1,0.02", "--kappa", "0.05,0.001",
          "--omega", "3e15", "--kpar-max", "3", "--points", "31"], "fresnel_absorbing_chiral.csv"),
        # only the lossless point is ok; the others are nan ... error:LosslessRequiredError rows
        (["sweep", "--config", str(SCENARIOS / "bulk_lossless.json"), "--param", "medium.eps.im",
          "--from", "-0.1", "--to", "0.1", "--points", "5"], "sweep_bulk_eps_im.csv"),
    ], ids=["fresnel-achiral", "fresnel-absorbing-chiral", "sweep-bulk-eps-im"])
    def test_golden_table_csv_byte_identical(self, tmp_path, capsys, argv, golden):
        out = tmp_path / "out.csv"
        code = main([*argv, "--csv", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.filterwarnings("ignore:(non)?retarded closed form used:UserWarning")
    @pytest.mark.parametrize("z_m", [1.0e-9, 1.5e-6, 1.0e-4])
    @pytest.mark.parametrize("hand", ["right", "left"])
    def test_mirror_numeric_electric_rate_prints_zero(self, tmp_path, capsys, hand, z_m):
        # a vanishing tensor gives a rate of +0.0 for every molecule, never
        # the -0 that a contraction through the phase could give: Im G of the
        # mirror in its exact and nonretarded limits (its diagonal
        # reflections vanish) and of the nonretarded half-space (real
        # near-field reflections), and curl Im G of the retarded lossless
        # half-space (no cross reflection and r_ss + r_pp = 0 at normal
        # incidence for |kappa| < n_r; the anisotropic molecule printed -0)
        mirror = {**MIRROR, "geometry": {**MIRROR["geometry"], "handedness": hand, "z_m": z_m}}
        halfspace = {**HALFSPACE, "geometry": {**HALFSPACE["geometry"], "z_m": z_m},
                     "medium": {**HALFSPACE["medium"], "kappa": [0.05 if hand == "right" else -0.05, 0.0]}}
        out = tmp_path / "out.csv"
        for base, limit, zeros in ((mirror, "numeric", [3]), (mirror, "nonretarded", [3]),
                                   (halfspace, "nonretarded", [3]), (halfspace, "retarded", [4, 7])):
            for molecule in (MIRROR["molecule"], ANISOTROPIC):
                code = rate(tmp_path, {**base, "molecule": molecule, "method": {"limit": limit}}, "--csv", str(out))
                capsys.readouterr()
                assert code == EXIT_OK
                fields = out.read_text().splitlines()[1].split(",")
                assert [fields[i] for i in zeros] == ["0"] * len(zeros)

    def test_rate_prints_the_comparison_line(self, capsys):
        # halfspace_nonretarded.json asks for compare_numeric
        code = main(["rate", "--config", str(SCENARIOS / "halfspace_nonretarded.json")])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert lines[-1].startswith("comparison   : numeric gamma_ch = ") and "rel_diff = " in lines[-1]

    def test_readme_scenario_runs(self):
        # the documented schema is the one the reader takes
        blocks = re.findall(r"```json\n(.*?)```", (REPO / "README.md").read_text(), re.DOTALL)
        assert blocks
        for block in blocks:
            b, _ = run_scenario(json.loads(block))
            assert np.isfinite(b.gamma_ch)

    def test_rate_csv_header_frozen(self):
        assert RATE_CSV_HEADER == "geometry,method,limit,gamma_el,gamma_ch,gamma_vac,gamma_total,s_disc"

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "o.csv"
        argv = ["rate", "--config", str(SCENARIOS / "bulk_lossless.json"), "--csv", str(out)]
        proc = subprocess.run([sys.executable, "-m", "chipurcell.cli", *argv],
                              capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0
        assert out.read_bytes() == (GOLDEN / "bulk_lossless.csv").read_bytes()


# Every medium with eps, mu and kappa drawn from these real values, in every
# medium geometry and limit, and the perfect mirror of either handedness in
# every limit at the same k0 z, for an isotropic and an anisotropic molecule.
DEGENERATE_VALUES = (0.0, 1.0, -1.0, 2.25, -2.25, 0.05, 12.0)
_K0 = BULK["molecule"]["omega_ik"] / CONSTANTS.c
_LIMIT_K0Z = {"nonretarded": 0.01, "retarded": 100.0, "numeric": 0.1}
DEGENERATE_GEOMETRIES = {
    **{f"halfspace-{limit}": ({"kind": "halfspace", "z_m": k0z / _K0}, {"limit": limit})
       for limit, k0z in _LIMIT_K0Z.items()},
    **{f"mirror-{hand}-{limit}": ({"kind": "mirror", "handedness": hand, "z_m": k0z / _K0}, {"limit": limit})
       for hand in ("right", "left") for limit, k0z in _LIMIT_K0Z.items()},
    "bulk": ({"kind": "bulk"}, {}),
    "bulk_lfc": ({"kind": "bulk_lfc", "radius_a": 1.0e-9}, {}),
    "bulk_lfc-main": ({"kind": "bulk_lfc", "radius_a": 1.0e-9}, {"f0_source": "main"}),
}
ANISOTROPIC = {
    "d": [[2.0e-30, 0.5e-30], [-1.0e-30, 0.0], [2.5e-30, -0.7e-30]],
    "m": [[0.3e-23, 0.8e-23], [0.0, -0.4e-23], [-0.6e-23, 0.2e-23]],
    "omega_ik": BULK["molecule"]["omega_ik"],
    "isotropic": False,
}


def ending(scen) -> str:
    """How ``run_scenario`` ends on ``scen``: "value" for finite fields,
    "typed" for an error the CLI maps to exit 2, 3 or 4, and otherwise
    what went wrong: an untyped exception (or a warning raised as one) or
    the fields that are not finite."""
    try:
        b, _ = run_scenario(scen)
    except (SchemaError, PhysicsError, QuadratureError):
        return "typed"
    except Exception as exc:
        return repr(exc)
    fields = (b.gamma_el, b.gamma_ch, b.gamma_vac, b.gamma_total, b.s_disc)
    return "value" if np.isfinite(fields).all() else repr(fields)


@pytest.mark.parametrize("geometry", DEGENERATE_GEOMETRIES)
def test_degenerate_grid_ends_finite_or_typed(geometry):
    """Each scenario returns finite fields or raises a typed error, and no
    warning escapes: the ending the CLI maps to exit 0, 2, 3 or 4."""
    geom, method = DEGENERATE_GEOMETRIES[geometry]
    # a mirror has no medium
    media = [()] if geom["kind"] == "mirror" else itertools.product(DEGENERATE_VALUES, repeat=3)
    endings = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mol, medium in itertools.product((BULK["molecule"], ANISOTROPIC), media):
            scen = {"molecule": mol, "geometry": geom, "method": method}
            if medium:
                scen["medium"] = dict(zip(("eps", "mu", "kappa"), ([v, 0.0] for v in medium)))
            endings[(mol["isotropic"], *medium)] = ending(scen)
    assert {case: end for case, end in endings.items() if end not in ("value", "typed")} == {}
    assert "value" in endings.values()  # the scenarios are well formed: some return


# Complex and degenerate media: eps and mu from lossless, absorbing, gain,
# near-real and negative values, and kappa from zero, a small absorbing
# value, the refractive index n_r = Re sqrt(eps mu) of either sign and just
# below it, and a large value; each in every geometry kind and limit, the
# planar ones at k0 z 1e-3, 1 and 100.
COMPLEX_VALUES = (1.0, 2.25, 12 + 1e-9j, -2 + 0.1j, -4.0, 2.25 - 0.1j, -1 + 0.1j, 1 - 0.05j)
COMPLEX_GEOMETRIES = {
    **{f"halfspace-{limit}": ({"kind": "halfspace"}, {"limit": limit}) for limit in _LIMIT_K0Z},
    **{f"mirror-{limit}": ({"kind": "mirror", "handedness": "right"}, {"limit": limit}) for limit in _LIMIT_K0Z},
    "bulk": ({"kind": "bulk"}, {}),
    "bulk_lfc": ({"kind": "bulk_lfc", "radius_a": 1.0e-9}, {}),
    "bulk_lfc-main": ({"kind": "bulk_lfc", "radius_a": 1.0e-9}, {"f0_source": "main"}),
}


def complex_media():
    for eps, mu in itertools.product(COMPLEX_VALUES, repeat=2):
        n_r = cmath.sqrt(eps * mu).real
        for kappa in dict.fromkeys((0.0, 0.05 + 0.001j, n_r, -n_r, n_r - 1e-9, 3.5)):
            yield {key: [value.real, value.imag] for key, value in zip(("eps", "mu", "kappa"), (eps, mu, kappa))}


@pytest.mark.usefixtures("cold_store")
@pytest.mark.parametrize("geometry", COMPLEX_GEOMETRIES)
def test_complex_media_end_finite_or_typed(geometry):
    """Each scenario returns finite fields or raises a typed error, and no
    warning escapes but a closed form's out-of-range UserWarning: the ending
    the CLI maps to exit 0, 2, 3 or 4."""
    geom, method = COMPLEX_GEOMETRIES[geometry]
    planar = geom["kind"] in ("mirror", "halfspace")
    distances = [{"z_m": k0z / _K0} for k0z in (1e-3, 1.0, 100.0)] if planar else [{}]
    media = [None] if geom["kind"] == "mirror" else complex_media()
    endings = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "(non)?retarded closed form used", UserWarning)
        for medium, where in itertools.product(media, distances):  # a medium's plan serves its three distances
            scen = {"molecule": ANISOTROPIC, "geometry": {**geom, **where}, "method": method}
            if medium:
                scen["medium"] = medium
            endings[json.dumps(scen["geometry"]), json.dumps(medium)] = ending(scen)
    assert {case: end for case, end in endings.items() if end not in ("value", "typed")} == {}
    assert "value" in endings.values()


# The leaves of one anisotropic retarded half-space scenario, each set to a
# value that the schema accepts, with the bits of the float value beside it,
# or refuses, with exactly the message beside it: the fast paths of the
# checks (a pair of floats, an object without optional fields) end every
# input as the general checks do.
LEAF_BASE = {
    "molecule": {key: value for key, value in ANISOTROPIC.items() if key != "isotropic"},
    "medium": {"eps": [2.25, 0.1], "mu": [1.0, 0.0], "kappa": [0.05, 0.001]},
    "geometry": {"kind": "halfspace", "z_m": 2.0e-6},
    "method": {"limit": "retarded"},
}
MISSING = object()  # a leaf deleted from the scenario
NAN, INF = float("nan"), float("inf")
LORENTZ_EPS = {"model": "lorentz", "strength": 0.8, "omega0": 5.0e15, "gamma": 1.0e13}


def with_leaf(path: tuple, value) -> dict:
    scen = copy.deepcopy(LEAF_BASE)
    *parents, leaf = path
    node = scen
    for key in parents:
        node = node[key]
    if value is MISSING:
        node.pop(leaf, None)
    else:
        node[leaf] = value
    return scen


ACCEPTED_LEAVES = {
    "eps-int-pair": (("medium", "eps"), [2, 0], [2.0, 0.0]),
    "eps-mixed-pair": (("medium", "eps"), [2, 0.1], [2.0, 0.1]),
    "eps-float64-pair": (("medium", "eps"), [np.float64(2.25), np.float64(0.1)], [2.25, 0.1]),
    "eps-float64": (("medium", "eps"), np.float64(2.25), [2.25, 0.0]),
    "mu-int": (("medium", "mu"), 1, [1.0, 0.0]),
    "kappa-real": (("medium", "kappa"), 0.05, [0.05, 0.0]),
    "lorentz-int-fields": (("medium", "eps"), {**LORENTZ_EPS, "omega0": 5 * 10**15, "gamma": 10**13}, LORENTZ_EPS),
    "lorentz-optional-background": (("medium", "eps"), LORENTZ_EPS, {**LORENTZ_EPS, "background": 1.0}),
    "d-int-pair": (("molecule", "d", 1), [0, 0], [0.0, 0.0]),
    "d-mixed-pair": (("molecule", "d", 1), [-1.0e-30, 0], [-1.0e-30, 0.0]),
    "d-real": (("molecule", "d", 0), 2.0e-30, [2.0e-30, 0.0]),
    "m-float64-pair": (("molecule", "m", 2), [np.float64(-0.6e-23), np.float64(0.2e-23)], [-0.6e-23, 0.2e-23]),
    "omega_ik-int": (("molecule", "omega_ik"), 3 * 10**15, 3.0e15),
    "omega_ik-float64": (("molecule", "omega_ik"), np.float64(3.0e15), 3.0e15),
    "isotropic-optional": (("molecule", "isotropic"), False, MISSING),
    "z_m-int": (("geometry", "z_m"), 1, 1.0),
    "z_m-float64": (("geometry", "z_m"), np.float64(2.0e-6), 2.0e-6),
}

# the refusals' messages, as the general checks write them
PAIR = ": complex values are two-element [re, im] arrays of finite numbers"
FINITE = ": expected a finite number, got "
NUMBER = ": expected a number or an [re, im] pair, got "
CHANNEL = ": expected number, [re, im] or model object"
OMEGA = "molecule.omega_ik: must be a positive finite number (rad/s), got "
VECTOR = ": expected a 3-element array of [re, im] pairs"
UNKNOWN = ": unknown field (the fields here: "
BOOL = ": expected true or false, got "
HUGE = 10**400

REFUSED_LEAVES = {
    "eps-bool-pair": (("medium", "eps"), [True, 0.0], "medium.eps" + PAIR),
    "eps-bool": (("medium", "eps"), True, "medium.eps" + FINITE + "True"),
    "eps-huge-int-pair": (("medium", "eps"), [HUGE, 0.0], "medium.eps" + PAIR),
    "eps-huge-int": (("medium", "eps"), HUGE, "medium.eps" + FINITE + str(HUGE)),
    "eps-nan-pair": (("medium", "eps"), [NAN, 0.0], "medium.eps" + PAIR),
    "eps-inf-pair": (("medium", "eps"), [0.0, INF], "medium.eps" + PAIR),
    "eps-minus-inf-pair": (("medium", "eps"), [-INF, 0.0], "medium.eps" + PAIR),
    "eps-float64-nan-pair": (("medium", "eps"), [np.float64(NAN), 0.0], "medium.eps" + PAIR),
    "eps-nan": (("medium", "eps"), NAN, "medium.eps" + FINITE + "nan"),
    "eps-inf": (("medium", "eps"), INF, "medium.eps" + FINITE + "inf"),
    "eps-minus-inf": (("medium", "eps"), -INF, "medium.eps" + FINITE + "-inf"),
    "eps-string": (("medium", "eps"), "2.25", "medium.eps" + CHANNEL),
    "eps-string-pair": (("medium", "eps"), ["2.25", 0.0], "medium.eps" + PAIR),
    "eps-one-element": (("medium", "eps"), [2.25], "medium.eps" + PAIR),
    "eps-three-elements": (("medium", "eps"), [2.25, 0.0, 0.0], "medium.eps" + PAIR),
    "eps-null": (("medium", "eps"), None, "medium.eps" + CHANNEL),
    "lorentz-missing": (("medium", "eps"), {"model": "lorentz", "strength": 0.8, "omega0": 5.0e15},
                        "medium.eps.gamma: missing required field"),
    "lorentz-extra": (("medium", "eps"), {**LORENTZ_EPS, "typo": 1.0},
                      "medium.eps.typo" + UNKNOWN + "background, gamma, model, omega0, strength)"),
    "lorentz_chiral-background": (("medium", "kappa"),
                                  {**LORENTZ_EPS, "model": "lorentz_chiral", "background": 1.0},
                                  "medium.kappa.background" + UNKNOWN + "gamma, model, omega0, strength)"),
    "lorentz-bool": (("medium", "eps"), {**LORENTZ_EPS, "gamma": True}, "medium.eps.gamma" + FINITE + "True"),
    "d-bool-pair": (("molecule", "d", 0), [True, 0.0], "molecule.d[0]" + PAIR),
    "d-huge-int-pair": (("molecule", "d", 0), [HUGE, 0.0], "molecule.d[0]" + PAIR),
    "d-nan-pair": (("molecule", "d", 0), [NAN, 0.0], "molecule.d[0]" + PAIR),
    "d-minus-inf-pair": (("molecule", "d", 2), [0.0, -INF], "molecule.d[2]" + PAIR),
    "d-float64-inf-pair": (("molecule", "d", 0), [np.float64(INF), 0.0], "molecule.d[0]" + PAIR),
    "d-string": (("molecule", "d", 0), "2e-30", "molecule.d[0]" + NUMBER + "'2e-30'"),
    "d-one-element": (("molecule", "d", 0), [2.0e-30], "molecule.d[0]" + PAIR),
    "d-three-elements": (("molecule", "d", 0), [2.0e-30, 0.0, 0.0], "molecule.d[0]" + PAIR),
    "d-model": (("molecule", "d", 1), LORENTZ_EPS, "molecule.d[1]" + NUMBER + repr(LORENTZ_EPS)),
    "m-bool": (("molecule", "m", 1), True, "molecule.m[1]" + FINITE + "True"),
    "d-one-vector": (("molecule", "d"), [[2.0e-30, 0.0]], "molecule.d" + VECTOR),
    "m-four-vectors": (("molecule", "m"), [[0.0, 0.0]] * 4, "molecule.m" + VECTOR),
    "d-string-vector": (("molecule", "d"), "d", "molecule.d" + VECTOR),
    "d-object": (("molecule", "d"), {}, "molecule.d" + VECTOR),
    "omega_ik-bool": (("molecule", "omega_ik"), True, OMEGA + "True"),
    "omega_ik-huge-int": (("molecule", "omega_ik"), HUGE, OMEGA + str(HUGE)),
    "omega_ik-nan": (("molecule", "omega_ik"), NAN, OMEGA + "nan"),
    "omega_ik-inf": (("molecule", "omega_ik"), INF, OMEGA + "inf"),
    "omega_ik-float64-nan": (("molecule", "omega_ik"), np.float64(NAN), OMEGA + "np.float64(nan)"),
    "omega_ik-string": (("molecule", "omega_ik"), "3e15", OMEGA + "'3e15'"),
    "omega_ik-pair": (("molecule", "omega_ik"), [3.0e15, 0.0], OMEGA + "[3000000000000000.0, 0.0]"),
    "omega_ik-zero": (("molecule", "omega_ik"), 0, OMEGA + "0"),
    "omega_ik-negative": (("molecule", "omega_ik"), -3.0e15, OMEGA + "-3000000000000000.0"),
    "isotropic-int": (("molecule", "isotropic"), 0, "molecule.isotropic" + BOOL + "0"),
    "isotropic-string": (("molecule", "isotropic"), "false", "molecule.isotropic" + BOOL + "'false'"),
    "z_m-bool": (("geometry", "z_m"), True, "geometry.z_m" + FINITE + "True"),
    "z_m-huge-int": (("geometry", "z_m"), HUGE, "geometry.z_m" + FINITE + str(HUGE)),
    "z_m-nan": (("geometry", "z_m"), NAN, "geometry.z_m" + FINITE + "nan"),
    "z_m-inf": (("geometry", "z_m"), INF, "geometry.z_m" + FINITE + "inf"),
    "z_m-minus-inf": (("geometry", "z_m"), -INF, "geometry.z_m" + FINITE + "-inf"),
    "z_m-string": (("geometry", "z_m"), "2e-6", "geometry.z_m" + FINITE + "'2e-6'"),
    "z_m-one-element": (("geometry", "z_m"), [2.0e-6], "geometry.z_m" + FINITE + "[2e-06]"),
    "z_m-null": (("geometry", "z_m"), None, "geometry.z_m" + FINITE + "None"),
    "molecule-missing": (("molecule", "m"), MISSING, "molecule.m: missing required field"),
    "molecule-extra": (("molecule", "typo"), 1.0, "molecule.typo" + UNKNOWN + "d, isotropic, m, omega_ik)"),
    "molecule-list": (("molecule",), [], "molecule: expected an object"),
    "medium-missing": (("medium", "kappa"), MISSING, "medium.kappa: missing required field"),
    "medium-extra": (("medium", "typo"), [1.0, 0.0], "medium.typo" + UNKNOWN + "eps, kappa, mu)"),
    "geometry-missing": (("geometry", "z_m"), MISSING, "geometry.z_m: missing required field"),
    "geometry-extra": (("geometry", "typo"), 1.0, "geometry.typo" + UNKNOWN + "kind, z_m)"),
    "geometry-mirror-field": (("geometry", "handedness"), "right",
                              "geometry.handedness" + UNKNOWN + "kind, z_m)"),
}


class TestSchemaLeaves:
    @pytest.mark.parametrize("case", ACCEPTED_LEAVES)
    def test_accepted_leaf_gives_the_bits_of_its_float_value(self, case):
        path, value, float_value = ACCEPTED_LEAVES[case]
        got, want = (run_scenario(with_leaf(path, v))[0] for v in (value, float_value))
        fields = ("gamma_el", "gamma_ch", "gamma_vac", "gamma_total", "s_disc")
        assert [getattr(got, f).hex() for f in fields] == [getattr(want, f).hex() for f in fields]

    @pytest.mark.parametrize("case", REFUSED_LEAVES)
    def test_refused_leaf_gives_its_message(self, case):
        path, value, message = REFUSED_LEAVES[case]
        with pytest.raises(SchemaError) as info:
            run_scenario(with_leaf(path, value))
        assert str(info.value) == message
