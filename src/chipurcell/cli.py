"""Command-line interface: single-point rates, parameter sweeps, reflection
tables, machine-readable output.

Scenario files are JSON with complex numbers as two-element [re, im] arrays
and SI units throughout (dipoles in C m and A m^2, frequencies in rad/s,
lengths in m). Every number must be finite: NaN and Infinity are schema
errors. Each response channel (eps, mu, kappa) is either a constant
[re, im] or a single-resonance Lorentz model evaluated at the transition
frequency:

    {"model": "lorentz", "background": 1.0, "strength": S,
     "omega0": w0, "gamma": g}          ->  background + S w0^2/(w0^2 - w^2 - i g w)
    {"model": "lorentz_chiral", "strength": S, "omega0": w0, "gamma": g}
                                        ->  S w0 w/(w0^2 - w^2 - i g w)

Exit codes: 0 success, 2 schema/usage error, 3 physics precondition
violation, 4 quadrature nonconvergence.

CSV schema v1 (frozen; golden files pin the exact bytes):
    rate:    geometry,method,limit,gamma_el,gamma_ch,gamma_vac,gamma_total,s_disc
    sweep:   param,gamma_el,gamma_ch,gamma_vac,s_disc,method,status
    fresnel: k_par_over_k0,r_ss_re,r_ss_im,r_pp_re,r_pp_im,r_sp_re,r_sp_im,r_ps_re,r_ps_im,status
Floats are written as %.17g: every value round-trips exactly, a signed zero
keeps its sign, and a non-finite value is written nan, inf or -inf.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from typing import Optional

import numpy as np

from .bulk import rates_bulk
from .constants import CONSTANTS
from .errors import PhysicsError, PoleError, QuadratureError, SchemaError
from .halfspace import (
    NONRETARDED_BELOW,
    RETARDED_ABOVE,
    Handedness,
    Limit,
    PlanarGeometry,
    planar_reflections,
    rates_halfspace,
    rates_mirror,
)
from .media import MediumResponse
from .molecules import TransitionDipoles
from .onsager import CavityConfig, rates_lfc
from .rates import RateBreakdown
from .sommerfeld import QuadratureSpec

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PHYSICS = 3
EXIT_QUADRATURE = 4


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# Scenario parsing
# ---------------------------------------------------------------------------

_FLOAT_MAX = sys.float_info.max


def _finite(node) -> bool:
    """Whether a scenario value is a finite number (a JSON bool counts as 0
    or 1)."""
    # the comparison fails for NaN, and for an integer beyond the float range
    return isinstance(node, (int, float)) and abs(node) <= _FLOAT_MAX


def _real_from(node, where: str) -> float:
    if _finite(node):
        return float(node)
    raise SchemaError(f"{where}: expected a finite number, got {node!r}")


def _lorentz_denominator(w0: float, g: float, omega: float, where: str) -> complex:
    den = w0**2 - omega**2 - 1j * g * omega
    if den == 0:
        raise PoleError(f"{where}: Lorentz model on resonance (omega0 = {w0!r}) with zero damping")
    return den


def _number_from(node, where: str) -> complex:
    """A finite number or an [re, im] pair of them."""
    if isinstance(node, (int, float)):
        return complex(_real_from(node, where))
    if isinstance(node, list):
        if len(node) == 2 and _finite(node[0]) and _finite(node[1]):
            return complex(node[0], node[1])
        raise SchemaError(f"{where}: complex values are two-element [re, im] arrays of finite numbers")
    raise SchemaError(f"{where}: expected a number or an [re, im] pair, got {node!r}")


def _complex_from(node, where: str, omega: float) -> complex:
    """A response channel: a number, an [re, im] pair or a model object
    evaluated at ``omega``."""
    if isinstance(node, dict):
        model = node.get("model")
        if model == "lorentz":
            try:
                bg = _real_from(node.get("background", 1.0), f"{where}.background")
                s = _real_from(node["strength"], f"{where}.strength")
                w0 = _real_from(node["omega0"], f"{where}.omega0")
                g = _real_from(node["gamma"], f"{where}.gamma")
            except KeyError as exc:
                raise SchemaError(f"{where}: lorentz model needs strength, omega0, gamma") from exc
            return bg + s * w0**2 / _lorentz_denominator(w0, g, omega, where)
        if model == "lorentz_chiral":
            try:
                s = _real_from(node["strength"], f"{where}.strength")
                w0 = _real_from(node["omega0"], f"{where}.omega0")
                g = _real_from(node["gamma"], f"{where}.gamma")
            except KeyError as exc:
                raise SchemaError(f"{where}: lorentz_chiral model needs strength, omega0, gamma") from exc
            return s * w0 * omega / _lorentz_denominator(w0, g, omega, where)
        raise SchemaError(f"{where}: unknown response model {model!r}")
    if isinstance(node, (int, float, list)):
        return _number_from(node, where)
    raise SchemaError(f"{where}: expected number, [re, im] or model object")


def _vector3_from(node, where: str) -> np.ndarray:
    if not (isinstance(node, list) and len(node) == 3):
        raise SchemaError(f"{where}: expected a 3-element array of [re, im] pairs")
    return np.array([_number_from(c, f"{where}[{i}]") for i, c in enumerate(node)])


def parse_molecule(node, where: str = "molecule") -> TransitionDipoles:
    if not isinstance(node, dict):
        raise SchemaError(f"{where}: expected an object")
    for key in ("d", "m", "omega_ik"):
        if key not in node:
            raise SchemaError(f"{where}: missing required field {key!r}")
    omega = node["omega_ik"]
    if not (_finite(omega) and omega > 0):
        raise SchemaError(f"{where}.omega_ik: must be a positive finite number (rad/s)")
    try:
        return TransitionDipoles(
            d=_vector3_from(node["d"], f"{where}.d"),
            m=_vector3_from(node["m"], f"{where}.m"),
            omega_ik=float(omega),
            isotropic=bool(node.get("isotropic", False)),
        )
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def parse_medium(node, omega: float, where: str = "medium") -> MediumResponse:
    if not isinstance(node, dict):
        raise SchemaError(f"{where}: expected an object")
    for key in ("eps", "mu", "kappa"):
        if key not in node:
            raise SchemaError(f"{where}: missing required field {key!r}")
    return MediumResponse(
        eps=_complex_from(node["eps"], f"{where}.eps", omega),
        mu=_complex_from(node["mu"], f"{where}.mu", omega),
        kappa=_complex_from(node["kappa"], f"{where}.kappa", omega),
        omega=omega,
    )


def _choose_limit(method_node, omega: float, z_m: float) -> Limit:
    name = method_node.get("limit", "auto")
    if name in ("retarded", "nonretarded", "numeric"):
        return Limit(name)
    if name != "auto":
        raise SchemaError(f"method.limit: unknown value {name!r}")
    thresholds = method_node.get("auto_thresholds", [NONRETARDED_BELOW, RETARDED_ABOVE])
    if not (isinstance(thresholds, list) and len(thresholds) == 2):
        raise SchemaError("method.auto_thresholds: expected a [below, above] pair of k0 z values")
    lo, hi = (_real_from(v, f"method.auto_thresholds[{i}]") for i, v in enumerate(thresholds))
    k0z = omega * z_m / CONSTANTS.c
    if k0z < lo:
        return Limit.NONRETARDED
    if k0z > hi:
        return Limit.RETARDED
    return Limit.NUMERIC


def parse_quadrature(node) -> QuadratureSpec:
    if node is None:
        return QuadratureSpec()
    if not isinstance(node, dict):
        raise SchemaError("method.quadrature: expected an object")
    kwargs = {}
    for key, value in node.items():
        if key not in ("rel_tol", "max_panels"):
            raise SchemaError(f"method.quadrature: unknown key {key!r}; the keys are rel_tol and max_panels")
        number = _real_from(value, f"method.quadrature.{key}")
        kwargs[key] = int(number) if key == "max_panels" else number
    try:
        return QuadratureSpec(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"method.quadrature: {exc}") from exc


def run_scenario(scenario: dict) -> tuple[RateBreakdown, dict]:
    """Validate and execute one scenario; returns (breakdown, annotations)."""
    if not isinstance(scenario, dict):
        raise SchemaError("scenario: expected a JSON object")
    mol = parse_molecule(scenario.get("molecule"))
    geom_node = scenario.get("geometry")
    if not isinstance(geom_node, dict) or "kind" not in geom_node:
        raise SchemaError("geometry: expected an object with a 'kind' field")
    kind = geom_node["kind"]
    method_node = scenario.get("method", {})
    if not isinstance(method_node, dict):
        raise SchemaError("method: expected an object")
    quad = parse_quadrature(method_node.get("quadrature"))
    annotations: dict = {"geometry": kind}

    if kind in ("bulk", "bulk_lfc", "halfspace"):
        med = parse_medium(scenario.get("medium"), mol.omega_ik)
    elif kind == "mirror":
        med = None
    else:
        raise SchemaError(f"geometry.kind: unknown value {kind!r}")

    if kind == "bulk":
        breakdown = rates_bulk(med, mol)
        annotations["limit"] = "static"
    elif kind == "bulk_lfc":
        if "radius_a" not in geom_node:
            raise SchemaError("geometry: bulk_lfc requires 'radius_a' (m)")
        cav = CavityConfig(radius_a=_real_from(geom_node["radius_a"], "geometry.radius_a"), host=med)
        f0_source = method_node.get("f0_source", "appendix")
        if f0_source not in ("appendix", "main"):
            raise SchemaError(f"method.f0_source: must be 'appendix' or 'main', got {f0_source!r}")
        breakdown = rates_lfc(cav, mol, f0_source=f0_source)
        annotations["limit"] = "small_radius"
    else:
        if "z_m" not in geom_node:
            raise SchemaError(f"geometry: {kind} requires 'z_m' (m)")
        z_m = _real_from(geom_node["z_m"], "geometry.z_m")
        limit = _choose_limit(method_node, mol.omega_ik, z_m)
        annotations["limit"] = limit.value
        if kind == "mirror":
            hand = geom_node.get("handedness", "right")
            if hand not in ("right", "left"):
                raise SchemaError("geometry.handedness: must be 'right' or 'left'")
            drreths_form = method_node.get("drreths_form", "dimensional")
            if drreths_form not in ("dimensional", "printed"):
                raise SchemaError(
                    f"method.drreths_form: must be 'dimensional' or 'printed', got {drreths_form!r}"
                )
            geom = PlanarGeometry(z_m=z_m, handedness=Handedness(hand))
            breakdown = rates_mirror(geom, mol, limit, drreths_form=drreths_form)
            if method_node.get("compare_numeric") and limit is not Limit.NUMERIC:
                other = rates_mirror(geom, mol, Limit.NUMERIC)
                annotations["comparison"] = _compare(breakdown, other)
        else:
            geom = PlanarGeometry(z_m=z_m, medium=med)
            breakdown = rates_halfspace(geom, mol, limit, spec=quad)
            if method_node.get("compare_numeric") and limit is not Limit.NUMERIC:
                other = rates_halfspace(geom, mol, Limit.NUMERIC, spec=quad)
                annotations["comparison"] = _compare(breakdown, other)
    return breakdown, annotations


def _compare(closed: RateBreakdown, numeric: RateBreakdown) -> dict:
    def rel(a, b):
        scale = max(abs(a), abs(b))
        return abs(a - b) / scale if scale > 0 else 0.0

    return {
        "numeric_gamma_ch": numeric.gamma_ch,
        "numeric_gamma_el": numeric.gamma_el,
        "rel_diff_gamma_ch": rel(closed.gamma_ch, numeric.gamma_ch),
        "rel_diff_gamma_el": rel(closed.gamma_el, numeric.gamma_el),
    }


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------

def _breakdown_dict(b: RateBreakdown, annotations: dict) -> dict:
    out = {
        "geometry": annotations.get("geometry"),
        "method": b.method.value,
        "limit": annotations.get("limit"),
        "gamma_el": b.gamma_el,
        "gamma_ch": b.gamma_ch,
        "gamma_vac": b.gamma_vac,
        "gamma_total": b.gamma_total,
        "s_disc": b.s_disc,
        "gamma_ch_over_gamma_vac": b.gamma_ch / b.gamma_vac if b.gamma_vac else 0.0,
        "assembly": b.assembly,
    }
    if "comparison" in annotations:
        out["comparison"] = annotations["comparison"]
    return out

def _print_human(d: dict, stream) -> None:
    print(f"geometry : {d['geometry']}   method: {d['method']}   limit: {d['limit']}", file=stream)
    for key, unit in (
        ("gamma_el", "1/s"),
        ("gamma_ch", "1/s"),
        ("gamma_vac", "1/s"),
        ("gamma_total", "1/s"),
    ):
        print(f"{key:12s} = {_fmt(d[key]):>25s} {unit}", file=stream)
    print(f"{'s_disc':12s} = {_fmt(d['s_disc']):>25s} (dimensionless)", file=stream)
    print(f"{'G_ch/G_vac':12s} = {_fmt(d['gamma_ch_over_gamma_vac']):>25s} (dimensionless)", file=stream)
    print(f"assembly     : {d['assembly']}", file=stream)
    if "comparison" in d:
        comp = d["comparison"]
        print(
            "comparison   : numeric gamma_ch = "
            f"{_fmt(comp['numeric_gamma_ch'])}  rel_diff = {_fmt(comp['rel_diff_gamma_ch'])}",
            file=stream,
        )


RATE_CSV_HEADER = "geometry,method,limit,gamma_el,gamma_ch,gamma_vac,gamma_total,s_disc"
SWEEP_CSV_HEADER = "param,gamma_el,gamma_ch,gamma_vac,s_disc,method,status"
FRESNEL_CSV_HEADER = (
    "k_par_over_k0,r_ss_re,r_ss_im,r_pp_re,r_pp_im,r_sp_re,r_sp_im,r_ps_re,r_ps_im,status"
)
# One %-format per schema, applied to Python floats: '%.17g' % v is
# f"{v:.17g}", so every float round-trips and a signed zero keeps its sign.
_RATE_ROW = "%s,%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g"
_SWEEP_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s"
_FRESNEL_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,ok"
_FRESNEL_POLE_ROW = "%.17g,nan,nan,nan,nan,nan,nan,nan,nan,error:PoleError"


def _rate_csv(d: dict) -> str:
    row = _RATE_ROW % (
        d["geometry"], d["method"], d["limit"],
        d["gamma_el"], d["gamma_ch"], d["gamma_vac"], d["gamma_total"], d["s_disc"],
    )
    return RATE_CSV_HEADER + "\n" + row + "\n"


# ---------------------------------------------------------------------------
# Sweep parameter addressing
# ---------------------------------------------------------------------------

def _set_path(scenario: dict, path: str, value: float) -> None:
    """Set a scalar scenario field by dotted path.

    Complex [re, im] leaves accept trailing '.re' / '.im' selectors; a bare
    path to a [re, im] leaf sets the real part.
    """
    parts = path.split(".")
    sel = None
    if parts[-1] in ("re", "im"):
        sel = parts[-1]
        parts = parts[:-1]
    node = scenario
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise SchemaError(f"sweep param path {path!r}: no field {p!r}")
        node = node[p]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise SchemaError(f"sweep param path {path!r}: no field {leaf!r}")
    cur = node[leaf]
    if isinstance(cur, list) and len(cur) == 2:
        idx = 1 if sel == "im" else 0
        cur[idx] = value
    elif isinstance(cur, (int, float)) and sel is None:
        node[leaf] = value
    else:
        raise SchemaError(f"sweep param path {path!r}: target is not a scalar")


def run_sweep(scenario: dict, param: str, lo: float, hi: float, points: int, log: bool) -> list[str]:
    """Execute the sweep; returns CSV lines (header + one row per grid point)."""
    if points < 1:
        raise SchemaError("sweep requires points >= 1")
    if log:
        if lo <= 0 or hi <= 0:
            raise SchemaError("log-scale sweep requires positive endpoints")
        grid = np.geomspace(lo, hi, points)
    else:
        grid = np.linspace(lo, hi, points)
    lines = [SWEEP_CSV_HEADER]
    for x in grid:
        scen = copy.deepcopy(scenario)
        _set_path(scen, param, float(x))
        try:
            b, _ = run_scenario(scen)
            row = (b.gamma_el, b.gamma_ch, b.gamma_vac, b.s_disc, b.method.value, "ok")
        except (PhysicsError, QuadratureError) as exc:
            nan = float("nan")
            row = (nan, nan, nan, nan, "none", f"error:{type(exc).__name__}")
        lines.append(_SWEEP_ROW % (float(x), *row))
    return lines


def run_fresnel(eps: complex, mu: complex, kappa: complex, omega: float,
                kpar_max: float, points: int) -> list[str]:
    """Reflection-coefficient table over k_par/k0 in [0, kpar_max]."""
    if points < 2:
        raise SchemaError("fresnel requires points >= 2")
    med = MediumResponse(eps, mu, kappa, omega)
    k0 = med.k0
    lines = [FRESNEL_CSV_HEADER]
    xs = np.linspace(0.0, kpar_max, points)
    r_ss, r_pp, r_sp = planar_reflections(med, np.sqrt(k0 * k0 - (xs * k0) ** 2 + 0j))  # Im >= 0
    r_ps = -r_sp
    table = np.stack([xs, r_ss.real, r_ss.imag, r_pp.real, r_pp.imag,
                      r_sp.real, r_sp.imag, r_ps.real, r_ps.imag], axis=1)
    for row, ok in zip(table.tolist(), np.isfinite(table).all(axis=1).tolist()):
        # a row that is not finite is a pole row
        lines.append(_FRESNEL_ROW % tuple(row) if ok else _FRESNEL_POLE_ROW % row[0])
    return lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse_complex_arg(text: str, name: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        real, imag = float(re_s), float(im_s)
    except ValueError as exc:
        raise SchemaError(f"--{name}: expected RE,IM") from exc
    return complex(_real_from(real, f"--{name}"), _real_from(imag, f"--{name}"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipurcell",
        description="Chirality-sensitive Purcell-effect calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="single-point decay rates from a scenario file")
    p_rate.add_argument("--config", required=True, help="scenario JSON file")
    p_rate.add_argument("--json", action="store_true", help="machine-readable JSON to stdout")
    p_rate.add_argument("--csv", metavar="PATH", help="write a one-row CSV to PATH")

    p_sweep = sub.add_parser("sweep", help="sweep one scalar scenario field")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help="dotted path, e.g. geometry.z_m or medium.kappa.re")
    p_sweep.add_argument("--from", dest="lo", type=float, required=True)
    p_sweep.add_argument("--to", dest="hi", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--log", action="store_true", help="geometric grid")
    p_sweep.add_argument("--csv", metavar="PATH", required=True)

    p_fres = sub.add_parser("fresnel", help="reflection-coefficient table")
    p_fres.add_argument("--eps", required=True, help="RE,IM")
    p_fres.add_argument("--mu", required=True, help="RE,IM")
    p_fres.add_argument("--kappa", required=True, help="RE,IM")
    p_fres.add_argument("--omega", type=float, required=True, help="rad/s")
    p_fres.add_argument("--kpar-max", dest="kpar_max", type=float, required=True,
                        help="grid upper end in units of k0")
    p_fres.add_argument("--points", type=int, required=True)
    p_fres.add_argument("--csv", metavar="PATH", required=True)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rate":
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    scenario = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise SchemaError(f"cannot load scenario {args.config!r}: {exc}") from exc
            breakdown, annotations = run_scenario(scenario)
            d = _breakdown_dict(breakdown, annotations)
            if args.csv:
                with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                    fh.write(_rate_csv(d))
            if args.json:
                json.dump(d, sys.stdout, indent=2)
                print()
            else:
                _print_human(d, sys.stdout)
            return EXIT_OK
        if args.command == "sweep":
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    scenario = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise SchemaError(f"cannot load scenario {args.config!r}: {exc}") from exc
            lines = run_sweep(scenario, args.param, args.lo, args.hi, args.points, args.log)
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join(lines) + "\n")
            print(f"wrote {len(lines) - 1} rows to {args.csv}")
            return EXIT_OK
        if args.command == "fresnel":
            lines = run_fresnel(
                _parse_complex_arg(args.eps, "eps"),
                _parse_complex_arg(args.mu, "mu"),
                _parse_complex_arg(args.kappa, "kappa"),
                _real_from(args.omega, "--omega"),
                _real_from(args.kpar_max, "--kpar-max"),
                args.points,
            )
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join(lines) + "\n")
            print(f"wrote {len(lines) - 1} rows to {args.csv}")
            return EXIT_OK
        raise SchemaError(f"unknown command {args.command!r}")
    except SchemaError as exc:
        print(f"error (schema): {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except PhysicsError as exc:
        print(f"error (physics): {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except QuadratureError as exc:
        print(f"error (quadrature): {exc}", file=sys.stderr)
        return EXIT_QUADRATURE


if __name__ == "__main__":
    sys.exit(main())
