#!/usr/bin/env python3
"""Paired measurements of two source trees, a parent commit and a change, as
recorded in the BENCH_*.json trajectory files.

    python3 tools/pairs.py bench  PARENT CHANGE --workload W --seeds 2201-2210 [--seconds 30]
    python3 tools/pairs.py cold   PARENT CHANGE --range 1e-3:10 [--points 600] [--seed 301] [--new-seeds]
    python3 tools/pairs.py layers PARENT CHANGE [--seed 1]
    python3 tools/pairs.py counts TREE [--seed 1] [--workload near_field_numeric]
    python3 tools/pairs.py values PARENT CHANGE [--seeds 1-3]

PARENT and CHANGE are checkouts of the two commits (a ``git archive`` of
each, say), each with its own ``src/`` and ``bench/``. Runs alternate which
tree goes first: odd pairs run the parent first. ``bench`` starts a fresh
process per run, which imports the package of its own tree only;
``counts`` imports its one tree, and ``cold``, ``layers`` and ``values``
both trees, each under its own alias, into the tool's own process.

* ``bench`` runs ``bench/run.py --trace 0`` once per seed and tree and
  reports, per end-to-end metric, both trees' medians and quartiles, the
  change of the median, the parent's interquartile range as a share of its
  median and the pairs the change won.
* ``cold`` times ``scatter_numeric`` on a new random medium at every point
  (the plan cache never hits, so nothing is stored from an earlier point),
  at log-uniform k0 z over the range, on both trees in one process, in
  alternating order point by point, and reports the median, quartiles and
  mean of the per-point time ratio change/parent and the points each tree
  won: pairing each medium on both trees removes the spread between
  processes, so an A/A run (one tree as both) resolves a few percent.
  The path's seed arrays depend on k0 z only, so a point reuses the seeds
  (and the seed round) of an earlier point in its octaves; ``--new-seeds``
  empties both trees' seed cache before every point, outside the timing,
  so that every point meets its seeds for the first time.
* ``layers`` splits the warm half-space points of ``near_field_numeric``
  (all their panels stored) and its numeric mirror points into minimum
  times over passes that alternate the trees, in us, averaged over the
  pass's points of each kind (or rounds, for ``gk15``, ``integrand`` and
  ``values_at``). For both kinds: the whole ``run_point``,
  ``parse_molecule``, the ``rates_*`` call on parsed inputs, the planar
  contraction of the point's five tensor entries (``_tensors`` and the two
  master formulas) and building its ``RateBreakdown``; for half-space
  points also ``parse_medium``, ``scatter_numeric``, ``integrate``,
  ``_gk15`` with its integrand, the integrand and the plan's ``values_at``;
  for mirror points the numeric tensor entries (``_mirror_entries``). From
  these: the part of ``run_point`` outside the rates call, the self times
  of ``_gk15`` and ``integrate`` and the part of ``scatter_numeric``
  outside the integral. Spies forward their arguments
  as they come, so a tree whose private signatures differ still runs.
* ``counts`` runs two passes of a workload (``near_field_numeric``) in one
  process and counts, per pass, points, integrals, GK15 rounds, panels, the
  path nodes whose reflections were evaluated, the integrals whose seed
  array an earlier integral of the process had met (the same object, whose
  seed round was built already) and the distinct seed arrays, compared by
  value: counts that repeat on any machine. Every seed array of the first
  pass is one object where its met integrals are its integrals less its
  distinct seed arrays.
* ``values`` imports both trees into one process and reports how far the
  change moves every bench output (all workloads at the seeds, and their
  anchors; split into points of isotropic molecules, of anisotropic ones
  and tables) and every ``scatter_numeric`` entry over the oracle media of
  ``tests/oracles.py``, relative to the larger of the two values.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

END_TO_END = {"points_per_s": "higher", "point_ms_p50": "lower", "point_ms_p90": "lower",
              "peak_rss_mb": "lower", "setup_s": "lower"}


def quartiles(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list, change: list, better: str) -> dict:
    p, c = quartiles(parent), quartiles(change)
    won = sum((b > a) if better == "higher" else (b < a) for a, b in zip(parent, change))
    return {"better": better, "parent": p, "change": c,
            "change_of_median": c["median"] / p["median"] - 1.0,
            "parent_iqr_share_of_median": (p["q3"] - p["q1"]) / p["median"],
            "pairs_won_by_change": won, "parent_runs": parent, "change_runs": change}


def in_pairs(n: int, run) -> tuple:
    """run(side, i) for i < n, alternating which side goes first."""
    parent, change = [], []
    for i in range(n):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            (parent if side == "parent" else change).append(run(side, i))
            print(f"pair {i + 1} {side}: {(parent if side == 'parent' else change)[-1]}", file=sys.stderr)
    return parent, change


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(args) -> dict:
    seeds = seed_list(args.seeds)

    def run(side, i):
        tree = Path(args.parent if side == "parent" else args.change)
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seeds[i]),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=tree, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        return {"correct": result["correct"], "failed": result["failed"],
                **{k: v["value"] for k, v in result["metrics"].items()}}

    parent, change = in_pairs(len(seeds), run)
    return {"workload": args.workload, "seeds": seeds, "pairs": len(seeds),
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in parent + change),
            "metrics": {m: compare([r[m] for r in parent], [r[m] for r in change], better)
                        for m, better in END_TO_END.items()}}


def cold(args) -> dict:
    import numpy as np

    lo, _, hi = args.range.partition(":")
    lo, hi = float(lo), float(hi or lo)
    sides = [load_tree(args.parent, "parent_chipurcell"), load_tree(args.change, "change_chipurcell")]
    rng = np.random.default_rng(args.seed)
    w = 3.0e15
    k0 = w / 299792458.0
    media = []
    for _ in range(args.points):
        eps = rng.uniform(1.5, 4.0) + (1j * rng.uniform(0.01, 0.3) if rng.random() < 0.5 else 0.0)
        kappa = rng.uniform(0.0, 0.3) + (1j * rng.uniform(0.0, 0.01) if rng.random() < 0.5 else 0.0)
        k0z = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        media.append(((complex(eps), 1.0, complex(kappa)), k0z / k0))
    for side in sides:  # warm-up
        side.scatter_numeric(side.PlanarGeometry(z_m=1.0 / k0, medium=side.MediumResponse(2.0, 1.0, 0.0, w)), w)

    def seconds(side, medium, z) -> float:
        geom = side.PlanarGeometry(z_m=z, medium=side.MediumResponse(*medium, w))
        if args.new_seeds:
            side.halfspace._seeds_between.cache_clear()
        t = time.perf_counter()
        try:
            side.scatter_numeric(geom, w)
        except side.errors.PhysicsError:  # totals past the float range near k0 z 1e-103
            pass
        return time.perf_counter() - t

    ratios = []
    for i, (medium, z) in enumerate(media):  # odd points run the parent first
        order = sides if i % 2 == 0 else sides[::-1]
        times = {side.__name__: seconds(side, medium, z) for side in order}
        ratios.append(times["change_chipurcell"] / times["parent_chipurcell"])
    return {"k0z": [lo, hi], "points": args.points, "seed": args.seed, "new_seeds": args.new_seeds,
            "time_ratio_change_over_parent": {**quartiles(ratios), "mean": statistics.mean(ratios)},
            "points_won": {"change": sum(r < 1.0 for r in ratios), "parent": sum(r > 1.0 for r in ratios)}}


def planar_contraction(hs, rates, mol, entries):
    """The planar tail's contraction of the five tensor entries: their
    layout (``_tensors``) and the two master formulas, each skipped for a
    tensor whose entries all vanish, as the tail skips it."""
    curl, img_g = hs._tensors(*entries)
    g_ch = rates.gamma_ch_from_curl(curl, mol, rates.Contraction.PLANAR_PAPER) if any(entries[:3]) else 0.0
    g_el = rates.gamma_el_from_img(img_g, mol) if any(entries[3:]) else 0.0
    return g_ch, g_el


def five_entries(curl, img_g) -> tuple:
    """curl Im G xx, zz, x-y and Im G xx, zz of a planar tensor pair."""
    curl, img_g = curl.tolist(), img_g.tolist()
    return curl[0][0], curl[2][2], curl[0][1], img_g[0][0], img_g[2][2]


def layers(args) -> dict:
    sys.path.insert(0, str(Path(args.parent).resolve() / "bench"))
    import workloads

    pass_points = workloads.generate("near_field_numeric", args.seed)
    groups = {kind: [p for p in pass_points if p.label["geometry"] == kind] for kind in ("halfspace", "mirror")}
    w = workloads.OMEGA
    k0 = w / 299792458.0
    jobs = {}  # per tree, per group, per layer: one call per point (or round)
    for side in ("parent", "change"):
        alias = f"{side}_chipurcell"
        load_tree(getattr(args, side), alias)
        cli, hs, sf, rates = (importlib.import_module(f"{alias}.{name}")
                              for name in ("cli", "halfspace", "sommerfeld", "rates"))
        for _ in range(2):  # every panel stored, every round seen whole
            for p in pass_points:
                workloads.run_point(cli, p)
        jobs[side] = {}
        for kind, points in groups.items():
            mols = [cli.parse_molecule(p.scenario["molecule"]) for p in points]
            if kind == "halfspace":
                geoms = [hs.PlanarGeometry(z_m=p.scenario["geometry"]["z_m"],
                                           medium=cli.parse_medium(p.scenario["medium"], w)) for p in points]
                entries = [five_entries(*hs.scatter_numeric(g, w)) for g in geoms]
                rate = hs.rates_halfspace
            else:
                hands = {"right": hs.Handedness.RIGHT, "left": hs.Handedness.LEFT}
                geoms = [hs.PlanarGeometry(z_m=p.scenario["geometry"]["z_m"],
                                           handedness=hands[p.scenario["geometry"]["handedness"]]) for p in points]
                entries = [hs._mirror_entries(g, w, hs.Limit.NUMERIC) for g in geoms]
                rate = hs.rates_mirror
            breakdowns = [rate(g, m, hs.Limit.NUMERIC) for g, m in zip(geoms, mols)]
            layer = {
                "run_point": [lambda p=p, cli=cli: workloads.run_point(cli, p) for p in points],
                "parse_molecule": [lambda p=p, cli=cli: cli.parse_molecule(p.scenario["molecule"]) for p in points],
                "rates": [lambda g=g, m=m, rate=rate, hs=hs: rate(g, m, hs.Limit.NUMERIC)
                          for g, m in zip(geoms, mols)],
                "contraction": [lambda m=m, e=e, hs=hs, rates=rates: planar_contraction(hs, rates, m, e)
                                for m, e in zip(mols, entries)],
                "RateBreakdown": [lambda b=b, rates=rates: rates.RateBreakdown(
                    gamma_el=b.gamma_el, gamma_ch=b.gamma_ch, gamma_vac=b.gamma_vac, gamma_total=b.gamma_total,
                    s_disc=b.s_disc, method=b.method, assembly=b.assembly) for b in breakdowns],
            }
            if kind == "halfspace":
                calls, rounds, nodes = [], [], []
                integrate, gk15 = hs.integrate, sf._gk15
                hs.integrate = lambda *args: calls.append(args) or integrate(*args)
                sf._gk15 = lambda f, *rest: rounds.append((f, *rest)) or gk15(lambda x: nodes.append(x) or f(x), *rest)
                for g in geoms:
                    hs.scatter_numeric(g, w)
                hs.integrate, sf._gk15 = integrate, gk15
                plans = [hs._plan(g.medium.eps, g.medium.mu, g.medium.kappa) for g in geoms]
                layer.update({
                    "parse_medium": [lambda p=p, cli=cli: cli.parse_medium(p.scenario["medium"], w) for p in points],
                    "scatter_numeric": [lambda g=g, hs=hs: hs.scatter_numeric(g, w) for g in geoms],
                    "integrate": [lambda c=c, integrate=integrate: integrate(*c) for c in calls],
                    "gk15": [lambda r=r, gk15=gk15: gk15(*r) for r in rounds],
                    "integrand": [lambda r=r, x=x: r[0](x) for r, x in zip(rounds, nodes)],
                    "values_at": [lambda p=p, x=x: p.values_at(x, k0) for p, x in zip(plans, nodes)],
                })
            else:
                layer["mirror_numeric"] = [lambda g=g, hs=hs: hs._mirror_entries(g, w, hs.Limit.NUMERIC)
                                           for g in geoms]
            jobs[side][kind] = layer
    best = {side: {kind: {layer: [float("inf")] * len(timed) for layer, timed in by_layer.items()}
                   for kind, by_layer in by_kind.items()} for side, by_kind in jobs.items()}
    for n in range(args.passes):  # the trees alternate, pass by pass
        for side in (("parent", "change") if n % 2 == 0 else ("change", "parent")):
            for kind, by_layer in jobs[side].items():
                for layer, timed in by_layer.items():
                    for i, call in enumerate(timed):
                        t = time.perf_counter()
                        call()
                        best[side][kind][layer][i] = min(best[side][kind][layer][i], time.perf_counter() - t)
    out = {}
    for side, by_kind in best.items():
        out[side] = {}
        for kind, by_layer in by_kind.items():
            us = {layer: statistics.mean(times) * 1e6 for layer, times in by_layer.items()}
            us["run_point_outside_rates"] = us["run_point"] - us["rates"]
            if kind == "halfspace":
                us["gk15_self"] = us["gk15"] - us["integrand"]
                us["integrate_self"] = us["integrate"] - us["gk15"]
                us["scatter_numeric_outside_integral"] = us["scatter_numeric"] - us["integrate"]
            out[side][kind] = us
    return {"seed": args.seed, "points": {kind: len(points) for kind, points in groups.items()},
            "passes": args.passes, "us_per_point": out}


def load_tree(tree: str, alias: str):
    """The package of ``tree`` imported under the name ``alias``, so that two
    trees can be compared in one process."""
    root = Path(tree).resolve() / "src" / "chipurcell"
    spec = importlib.util.spec_from_file_location(alias, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def values(args) -> dict:
    """The largest relative move, change against parent, of every bench
    output (all three workloads at the given seeds, and their anchors) and
    of every scatter_numeric entry over the oracle media."""
    sys.path[:0] = [str(Path(args.parent).resolve() / "bench"), str(Path(args.parent).resolve() / "tests")]
    import numpy as np
    import workloads
    from oracles import ORACLE_MEDIA

    sides = [load_tree(args.parent, "parent_chipurcell"), load_tree(args.change, "change_chipurcell")]
    clis = [importlib.import_module(f"{side.__name__}.cli") for side in sides]

    def move(x, y) -> float:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        scale = np.maximum(np.abs(x), np.abs(y))
        return float(np.max(np.abs(x - y) / np.where(scale == 0, 1.0, scale), initial=0.0))

    kinds = ("all", "isotropic", "anisotropic", "table")
    out = {"bench_outputs": {kind: {"points": 0, "bit_identical": 0, "largest_move": 0.0, "at": None}
                             for kind in kinds}}
    for workload in workloads.GENERATORS:
        points = [p for s in seed_list(args.seeds) for p in workloads.generate(workload, s)]
        for p in points + workloads.ANCHORS[workload]:
            a, b = (workloads.run_point(cli, p) for cli in clis)
            kind = ("table" if p.scenario is None
                    else "isotropic" if p.scenario["molecule"].get("isotropic") else "anisotropic")
            for bench in (out["bench_outputs"]["all"], out["bench_outputs"][kind]):
                bench["points"] += 1
                bench["bit_identical"] += a == b
                if a != b and move(a, b) > bench["largest_move"]:
                    bench["largest_move"], bench["at"] = move(a, b), p.label
    w = 3.0e15
    k0 = w / 299792458.0
    entries = out["scatter_numeric"] = {"points": 0, "bit_identical_or_same_error": 0, "moved": []}
    for name, medium in ORACLE_MEDIA.items():
        for k0z in (1e-103, 1e-60, 1e-20, 1e-10, 1e-6, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0,
                    10.0, 30.0, 100.0, 1e3, 1e4):
            got = []
            for side in sides:
                try:
                    geom = side.PlanarGeometry(z_m=k0z / k0, medium=side.MediumResponse(*medium, omega=w))
                    got.append(np.concatenate([t.ravel() for t in side.scatter_numeric(geom, w)]))
                except Exception as exc:  # compared by type: both sides must end the same way
                    got.append(type(exc).__name__)
            entries["points"] += 1
            ended = any(isinstance(g, str) for g in got)
            if got[0] == got[1] if ended else np.array_equal(*got):
                entries["bit_identical_or_same_error"] += 1
            else:
                entries["moved"].append({"medium": name, "k0z": k0z,
                                         "largest_entry_move": None if ended else move(*got),
                                         "parent": got[0] if ended else got[0].tolist(),
                                         "change": got[1] if ended else got[1].tolist()})
    return out


def counts(args) -> dict:
    """Machine-independent counts of two passes of a workload's seed in one
    fresh process: points, integrals, GK15 rounds, panels, path nodes whose
    reflections were evaluated (the store's misses), integrals whose seed
    array (the same object) an earlier integral of the process met, and the
    distinct seed arrays of the pass, by value."""
    tree = Path(args.tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import workloads
    from chipurcell import cli, halfspace as hs, sommerfeld as sf

    tally = {}
    met = {}  # id -> every seed array met, kept alive so that no id is reused
    distinct = set()  # the values of the seed arrays of this pass
    integrate, gk15, amplitudes = hs.integrate, sf._gk15, hs._amplitudes

    def spy_integrate(*args):
        seeds = args[1]
        tally["on_a_met_seed_array"] += id(seeds) in met
        met[id(seeds)] = seeds
        distinct.add(tuple(seeds))
        res = integrate(*args)
        tally["integrals"] += 1
        tally["panels"] += res.panels_used
        return res

    def spy_gk15(*args):
        tally["rounds"] += 1
        return gk15(*args)

    def spy_amplitudes(plan, x, *rest):
        if x.ndim == 3:  # a batch of path panels (the pole search passes a 1-d array)
            tally["path_nodes"] += x[0].size
        return amplitudes(plan, x, *rest)

    hs.integrate, sf._gk15, hs._amplitudes = spy_integrate, spy_gk15, spy_amplitudes
    passes = []
    points = workloads.generate(args.workload, args.seed)
    for _ in range(2):
        tally.update(points=len(points), integrals=0, rounds=0, panels=0, path_nodes=0, on_a_met_seed_array=0)
        distinct.clear()
        for p in points:
            workloads.run_point(cli, p)
        passes.append({**tally, "distinct_seed_arrays": len(distinct)})
    return {"tree": str(tree), "workload": args.workload, "seed": args.seed, "passes": passes}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    b = sub.add_parser("bench")
    b.add_argument("parent")
    b.add_argument("change")
    b.add_argument("--workload", required=True)
    b.add_argument("--seeds", required=True, help="N or N-M")
    b.add_argument("--seconds", type=int, default=30)
    c = sub.add_parser("cold")
    c.add_argument("parent")
    c.add_argument("change")
    c.add_argument("--range", required=True, help="LO:HI of k0 z, or one value")
    c.add_argument("--points", type=int, default=600)
    c.add_argument("--seed", type=int, default=301)
    c.add_argument("--new-seeds", action="store_true", help="empty the seed cache before every point")
    lay = sub.add_parser("layers")
    lay.add_argument("parent")
    lay.add_argument("change")
    lay.add_argument("--seed", type=int, default=1)
    lay.add_argument("--passes", type=int, default=40)
    cnt = sub.add_parser("counts")
    cnt.add_argument("tree")
    cnt.add_argument("--seed", type=int, default=1)
    cnt.add_argument("--workload", default="near_field_numeric")
    val = sub.add_parser("values")
    val.add_argument("parent")
    val.add_argument("change")
    val.add_argument("--seeds", default="1-3", help="N or N-M")
    args = ap.parse_args(argv)
    commands = {"bench": bench, "cold": cold, "layers": layers, "counts": counts, "values": values}
    print(json.dumps(commands[args.cmd](args)))


if __name__ == "__main__":
    main()
