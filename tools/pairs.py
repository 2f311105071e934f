#!/usr/bin/env python3
"""Paired measurements of two source trees, a parent commit and a change, as
recorded in the BENCH_*.json trajectory files.

    python3 tools/pairs.py bench  PARENT CHANGE --workload W --seeds 2201-2210 [--seconds 30]
    python3 tools/pairs.py cold   PARENT CHANGE --range 1e-3:10 [--points 600] [--seed 301]
    python3 tools/pairs.py layers PARENT CHANGE [--seed 1]
    python3 tools/pairs.py counts TREE [--seed 1]
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
* ``layers`` splits one warm half-space point of ``near_field_numeric``
  (all its panels stored) into minimum times over passes that alternate
  the trees, in us, averaged over the pass's half-space points (or rounds,
  for the last three): the whole ``run_point``, ``scatter_numeric``,
  ``integrate``, ``_gk15`` with its integrand, the integrand, and the
  plan's ``values_at``; and from these the self times of ``_gk15`` and
  ``integrate`` and the part of ``scatter_numeric`` outside the integral.
* ``counts`` runs two passes of ``near_field_numeric`` in one process and
  counts, per pass, integrals, GK15 rounds, panels and the path nodes whose
  reflections were evaluated: counts that repeat on any machine.
* ``values`` imports both trees into one process and reports how far the
  change moves every bench output (all workloads at the seeds, and their
  anchors) and every ``scatter_numeric`` entry over the oracle media of
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
    return {"k0z": [lo, hi], "points": args.points, "seed": args.seed,
            "time_ratio_change_over_parent": {**quartiles(ratios), "mean": statistics.mean(ratios)},
            "points_won": {"change": sum(r < 1.0 for r in ratios), "parent": sum(r > 1.0 for r in ratios)}}


def layers(args) -> dict:
    sys.path.insert(0, str(Path(args.parent).resolve() / "bench"))
    import workloads

    points = [p for p in workloads.generate("near_field_numeric", args.seed)
              if p.label["geometry"] == "halfspace"]
    w = workloads.OMEGA
    k0 = w / 299792458.0
    jobs = {}  # per tree, per layer: one call per point (or round)
    for side in ("parent", "change"):
        alias = f"{side}_chipurcell"
        load_tree(getattr(args, side), alias)
        cli, hs, sf = (importlib.import_module(f"{alias}.{name}") for name in ("cli", "halfspace", "sommerfeld"))
        for _ in range(2):  # every panel stored, every round seen whole
            for p in points:
                workloads.run_point(cli, p)
        geoms = []
        for p in points:
            s = p.scenario
            med = hs.MediumResponse(*(complex(*s["medium"][k]) for k in ("eps", "mu", "kappa")), w)
            geoms.append(hs.PlanarGeometry(z_m=s["geometry"]["z_m"], medium=med))
        calls, rounds, nodes = [], [], []
        integrate, gk15 = hs.integrate, sf._gk15
        hs.integrate = lambda f, seeds, spec: calls.append((f, seeds, spec)) or integrate(f, seeds, spec)
        sf._gk15 = lambda f, a, b: rounds.append((f, a, b)) or gk15(lambda x: nodes.append(x) or f(x), a, b)
        for g in geoms:
            hs.scatter_numeric(g, w)
        hs.integrate, sf._gk15 = integrate, gk15
        plans = [hs._plan(g.medium.eps, g.medium.mu, g.medium.kappa) for g in geoms]
        jobs[side] = {
            "run_point": [lambda p=p, cli=cli: workloads.run_point(cli, p) for p in points],
            "scatter_numeric": [lambda g=g, hs=hs: hs.scatter_numeric(g, w) for g in geoms],
            "integrate": [lambda c=c, integrate=integrate: integrate(*c) for c in calls],
            "gk15": [lambda r=r, gk15=gk15: gk15(*r) for r in rounds],
            "integrand": [lambda r=r, x=x: r[0](x) for r, x in zip(rounds, nodes)],
            "values_at": [lambda p=p, x=x: p.values_at(x, k0) for p, x in zip(plans, nodes)],
        }
    best = {side: {layer: [float("inf")] * len(timed) for layer, timed in by_layer.items()}
            for side, by_layer in jobs.items()}
    for n in range(args.passes):  # the trees alternate, pass by pass
        for side in (("parent", "change") if n % 2 == 0 else ("change", "parent")):
            for layer, timed in jobs[side].items():
                for i, call in enumerate(timed):
                    t = time.perf_counter()
                    call()
                    best[side][layer][i] = min(best[side][layer][i], time.perf_counter() - t)
    out = {}
    for side, by_layer in best.items():
        us = {layer: statistics.mean(times) * 1e6 for layer, times in by_layer.items()}
        us["gk15_self"] = us["gk15"] - us["integrand"]
        us["integrate_self"] = us["integrate"] - us["gk15"]
        us["scatter_numeric_outside_integral"] = us["scatter_numeric"] - us["integrate"]
        out[side] = us
    return {"seed": args.seed, "points": len(points), "passes": args.passes, "us_per_point": out}


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

    out = {"bench_outputs": {"points": 0, "bit_identical": 0, "largest_move": 0.0, "at": None}}
    bench = out["bench_outputs"]
    for workload in workloads.GENERATORS:
        points = [p for s in seed_list(args.seeds) for p in workloads.generate(workload, s)]
        for p in points + workloads.ANCHORS[workload]:
            a, b = (workloads.run_point(cli, p) for cli in clis)
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
    """Machine-independent counts of two passes of a near_field_numeric seed
    in one fresh process: integrals, GK15 rounds, panels, and path nodes
    whose reflections were evaluated (the store's misses)."""
    tree = Path(args.tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import workloads
    from chipurcell import cli, halfspace as hs, sommerfeld as sf

    tally = {}
    integrate, gk15, amplitudes = hs.integrate, sf._gk15, hs._amplitudes

    def spy_integrate(f, seeds, spec):
        res = integrate(f, seeds, spec)
        tally["integrals"] += 1
        tally["panels"] += res.panels_used
        return res

    def spy_gk15(f, a, b):
        tally["rounds"] += 1
        return gk15(f, a, b)

    def spy_amplitudes(plan, x):
        if x.ndim == 3:  # a batch of path panels (the pole search passes a 1-d array)
            tally["path_nodes"] += x[0].size
        return amplitudes(plan, x)

    hs.integrate, sf._gk15, hs._amplitudes = spy_integrate, spy_gk15, spy_amplitudes
    passes = []
    points = workloads.generate("near_field_numeric", args.seed)
    for _ in range(2):
        tally.update(integrals=0, rounds=0, panels=0, path_nodes=0)
        for p in points:
            workloads.run_point(cli, p)
        passes.append(dict(tally))
    return {"tree": str(tree), "seed": args.seed, "passes": passes}


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
    lay = sub.add_parser("layers")
    lay.add_argument("parent")
    lay.add_argument("change")
    lay.add_argument("--seed", type=int, default=1)
    lay.add_argument("--passes", type=int, default=40)
    cnt = sub.add_parser("counts")
    cnt.add_argument("tree")
    cnt.add_argument("--seed", type=int, default=1)
    val = sub.add_parser("values")
    val.add_argument("parent")
    val.add_argument("change")
    val.add_argument("--seeds", default="1-3", help="N or N-M")
    args = ap.parse_args(argv)
    commands = {"bench": bench, "cold": cold, "layers": layers, "counts": counts, "values": values}
    print(json.dumps(commands[args.cmd](args)))


if __name__ == "__main__":
    main()
