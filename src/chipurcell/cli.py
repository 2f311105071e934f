"""Command-line interface: single-point rates, parameter sweeps, reflection
tables, machine-readable output.

Scenario files are JSON with complex numbers as two-element [re, im] arrays
and SI units throughout (dipoles in C m and A m^2, frequencies in rad/s,
lengths in m). Every number must be finite: NaN and Infinity are schema
errors. Every object has a fixed set of fields, which geometry.kind selects
(``_KINDS``): a missing required field or any other field is a schema error
that names it. Each response channel (eps, mu, kappa) is either a constant
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
from .errors import PhysicsError, PoleError, QuadratureError, SchemaError
from .halfspace import (
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
    """Whether a scenario value is a finite number; a JSON bool is not one."""
    # the type test settles a JSON float at once; the comparison fails for
    # NaN, and for an integer beyond the float range
    number = type(node) is float or isinstance(node, (int, float)) and not isinstance(node, bool)
    return number and abs(node) <= _FLOAT_MAX


def _path(where) -> str:
    """A field path: a string, or a (parent path, suffix) pair such as
    (path, ".eps") or (path, "[0]"), joined only when an error names it."""
    return where if isinstance(where, str) else _path(where[0]) + where[1]


def _real_from(node, where) -> float:
    if _finite(node):
        return float(node)
    raise SchemaError(f"{_path(where)}: expected a finite number, got {node!r}")


def _omega_from(node, where) -> float:
    if _finite(node) and node > 0:
        return float(node)
    raise SchemaError(f"{_path(where)}: must be a positive finite number (rad/s), got {node!r}")


def _number_from(node, where) -> complex:
    """A finite number or an [re, im] pair of them."""
    if isinstance(node, list):
        if len(node) == 2 and _finite(node[0]) and _finite(node[1]):
            return complex(node[0], node[1])
        raise SchemaError(f"{_path(where)}: complex values are two-element [re, im] arrays of finite numbers")
    if isinstance(node, (int, float)):
        return complex(_real_from(node, where))
    raise SchemaError(f"{_path(where)}: expected a number or an [re, im] pair, got {node!r}")


def _fields(node, where, required: frozenset, optional: frozenset = frozenset()) -> dict:
    """``node``, checked to be an object with every field of ``required`` and
    none outside ``required | optional`` (disjoint); ``where`` is its path."""
    if not isinstance(node, dict):
        raise SchemaError(f"{_path(where) or 'scenario'}: expected an object")
    if node.keys() - optional != required:
        prefix = f"{_path(where)}." if where else ""
        missing = sorted(required.difference(node))
        if missing:
            raise SchemaError(f"{prefix}{missing[0]}: missing required field")
        unknown = next(key for key in node if key not in required and key not in optional)
        allowed = ", ".join(sorted(required | optional)) or "none"
        raise SchemaError(f"{prefix}{unknown}: unknown field (the fields here: {allowed})")
    return node


_NONE = frozenset()
_MOLECULE = frozenset({"d", "m", "omega_ik"})
_ISOTROPIC = frozenset({"isotropic"})
_MEDIUM = frozenset({"eps", "mu", "kappa"})
_MODEL = frozenset({"model", "strength", "omega0", "gamma"})
_BACKGROUND = frozenset({"background"})
_QUADRATURE = frozenset({"rel_tol", "max_panels"})
_METHOD = frozenset({"method"})
_KIND = frozenset({"kind"})
_DEFAULT_QUADRATURE = QuadratureSpec()  # frozen, so every scenario without one shares it
_ROOT = frozenset({"molecule", "medium", "geometry"})
_PLANAR_METHOD = frozenset({"limit", "compare_numeric", "quadrature"})
# For each geometry.kind: the fields the scenario root requires (method is
# optional in every kind), the fields geometry requires, and the fields
# method may hold.
_KINDS = {
    "bulk": (_ROOT, _KIND, _NONE),
    "bulk_lfc": (_ROOT, _KIND | {"radius_a"}, frozenset({"f0_source"})),
    "mirror": (_ROOT - {"medium"}, _KIND | {"handedness", "z_m"}, _PLANAR_METHOD),
    "halfspace": (_ROOT, _KIND | {"z_m"}, _PLANAR_METHOD),
}


def _complex_from(node, where, omega: float) -> complex:
    """A response channel: a number, an [re, im] pair or a model object
    evaluated at ``omega``."""
    if isinstance(node, dict):
        model = node.get("model")
        if model not in ("lorentz", "lorentz_chiral"):
            raise SchemaError(f"{_path(where)}: unknown response model {model!r}")
        _fields(node, where, _MODEL, _BACKGROUND if model == "lorentz" else _NONE)
        s, w0, g, bg = (_real_from(node.get(key, 1.0), (where, "." + key))
                        for key in ("strength", "omega0", "gamma", "background"))
        den = w0**2 - omega**2 - 1j * g * omega
        if den == 0:
            raise PoleError(f"{_path(where)}: Lorentz model on resonance (omega0 = {w0!r}) with zero damping")
        return bg + s * w0**2 / den if model == "lorentz" else s * w0 * omega / den
    if isinstance(node, (int, float, list)):
        return _number_from(node, where)
    raise SchemaError(f"{_path(where)}: expected number, [re, im] or model object")


def _vector3_from(node, where) -> np.ndarray:
    if not (isinstance(node, list) and len(node) == 3):
        raise SchemaError(f"{_path(where)}: expected a 3-element array of [re, im] pairs")
    return np.array([_number_from(c, (where, i)) for c, i in zip(node, ("[0]", "[1]", "[2]"))], dtype=complex)


def _bool_from(node, where) -> bool:
    if isinstance(node, bool):
        return node
    raise SchemaError(f"{_path(where)}: expected true or false, got {node!r}")


def parse_molecule(node, where="molecule") -> TransitionDipoles:
    _fields(node, where, _MOLECULE, _ISOTROPIC)
    omega = _omega_from(node["omega_ik"], (where, ".omega_ik"))
    isotropic = _bool_from(node.get("isotropic", False), (where, ".isotropic"))
    try:
        return TransitionDipoles(_vector3_from(node["d"], (where, ".d")),
                                 _vector3_from(node["m"], (where, ".m")), omega, isotropic)
    except ValueError as exc:
        raise SchemaError(f"{_path(where)}: {exc}") from exc


def parse_medium(node, omega: float, where="medium") -> MediumResponse:
    _fields(node, where, _MEDIUM)
    return MediumResponse(_complex_from(node["eps"], (where, ".eps"), omega),
                          _complex_from(node["mu"], (where, ".mu"), omega),
                          _complex_from(node["kappa"], (where, ".kappa"), omega), omega)


def _choose_limit(name) -> Limit:
    """The ``method.limit`` value; ``"auto"`` takes the exact planar
    pathway, ``Limit.NUMERIC``, for the mirror and the half-space at every
    distance. The closed forms are taken only by name."""
    if name == "auto":
        return Limit.NUMERIC
    if name in ("retarded", "nonretarded", "numeric"):
        return Limit(name)
    raise SchemaError(f"method.limit: unknown value {name!r}")


def parse_quadrature(node) -> QuadratureSpec:
    if node is None:
        return _DEFAULT_QUADRATURE
    _fields(node, "method.quadrature", _NONE, _QUADRATURE)
    kwargs = {key: _real_from(value, f"method.quadrature.{key}") for key, value in node.items()}
    if "max_panels" in kwargs:
        panels = kwargs["max_panels"]
        if not panels.is_integer():
            raise SchemaError(f"method.quadrature.max_panels: expected a whole number, got {panels!r}")
        kwargs["max_panels"] = int(panels)
    try:
        return QuadratureSpec(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"method.quadrature: {exc}") from exc


def run_scenario(scenario: dict) -> tuple[RateBreakdown, dict]:
    """Validate and execute one scenario; returns (breakdown, annotations).
    Arithmetic that leaves the float range raises PhysicsError, here or, for
    a breakdown field that is not finite, in ``RateBreakdown``."""
    try:
        return _run_scenario(scenario)
    except (OverflowError, ZeroDivisionError) as exc:
        raise PhysicsError(f"the arithmetic left the float range: {exc}") from exc


def _run_scenario(scenario: dict) -> tuple[RateBreakdown, dict]:
    geometry = scenario.get("geometry") if isinstance(scenario, dict) else None
    kind = geometry.get("kind") if isinstance(geometry, dict) else None
    if not (isinstance(kind, str) and kind in _KINDS):
        raise SchemaError(f"geometry.kind: must be one of {', '.join(_KINDS)}, got {kind!r}")
    root_fields, geometry_fields, method_fields = _KINDS[kind]
    _fields(scenario, "", root_fields, _METHOD)
    _fields(geometry, "geometry", geometry_fields)
    method = _fields(scenario.get("method", {}), "method", _NONE, method_fields)
    mol = parse_molecule(scenario["molecule"])
    med = None if kind == "mirror" else parse_medium(scenario["medium"], mol.omega_ik)

    if kind == "bulk":
        return rates_bulk(med, mol), {"geometry": kind, "limit": "static"}
    if kind == "bulk_lfc":
        cav = CavityConfig(radius_a=_real_from(geometry["radius_a"], "geometry.radius_a"), host=med)
        f0_source = method.get("f0_source", "appendix")
        if f0_source not in ("appendix", "main"):
            raise SchemaError(f"method.f0_source: must be 'appendix' or 'main', got {f0_source!r}")
        return rates_lfc(cav, mol, f0_source=f0_source), {"geometry": kind, "limit": "small_radius"}

    quad = parse_quadrature(method.get("quadrature"))  # the mirror validates it and uses none
    compare = _bool_from(method.get("compare_numeric", False), "method.compare_numeric")
    z_m = _real_from(geometry["z_m"], "geometry.z_m")
    limit = _choose_limit(method.get("limit", "auto"))
    annotations = {"geometry": kind, "limit": limit.value}
    if kind == "mirror":
        hand = geometry["handedness"]
        if hand not in ("right", "left"):
            raise SchemaError(f"geometry.handedness: must be 'right' or 'left', got {hand!r}")
        rates, geom, options = rates_mirror, PlanarGeometry(z_m=z_m, handedness=Handedness(hand)), {}
    else:
        rates, geom, options = rates_halfspace, PlanarGeometry(z_m=z_m, medium=med), {"spec": quad}
    breakdown = rates(geom, mol, limit, **options)
    if compare and limit is not Limit.NUMERIC:
        annotations["comparison"] = _compare(breakdown, rates(geom, mol, Limit.NUMERIC, **options))
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
        "gamma_ch_over_gamma_vac": b.gamma_ch / b.gamma_vac,
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


def _load_scenario(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or bytes that are not UTF-8
        raise SchemaError(f"cannot load scenario {path!r}: {exc}") from exc


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
            breakdown, annotations = run_scenario(_load_scenario(args.config))
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
            scenario = _load_scenario(args.config)
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
                _omega_from(args.omega, "--omega"),
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
