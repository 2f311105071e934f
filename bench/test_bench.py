"""Self-checks of the benchmark's tracer and oracle.

    python3 -m pytest bench -q

Kept out of the tier-1 suite (pyproject's testpaths is ``tests``).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from chipurcell import cli  # noqa: E402
from chipurcell.halfspace import (  # noqa: E402
    Handedness,
    PlanarGeometry,
    curl_img_scatter_numeric,
    mirror_reflections,
)


def traced(point, targets=tracing.TARGETS):
    tracer = tracing.Tracer(targets)
    tracer.install()
    try:
        tracer.begin_pass()
        tracer.begin_point(0)
        workloads.run_point(cli, point)
    finally:
        tracer.uninstall()
    return tracer


# Counts of the code this benchmark was written against (eps 2.25, mu 1,
# kappa 0.05, the isotropic molecule at 3e15 rad/s, rel_tol 1e-8). A change
# to the quadrature or the reflection layer changes them on purpose.
@pytest.mark.parametrize("k0z, fresnel_calls, panels", [
    (1e-3, 2025, 95),
    (1.0, 7755, 286),
    (10.0, 1335, 87),
    (1e3, 74655, 4101),
])
def test_tracer_reproduces_baseline_counts(k0z, fresnel_calls, panels):
    hs = traced(workloads.halfspace("lossless", k0z, "numeric", workloads.ISOTROPIC))
    m = tracing.layer_metrics(hs.trace, 1)
    assert m["halfspace.fresnel_general.calls"][0] == fresnel_calls
    assert m["sommerfeld.panels"][0] == panels
    assert hs.trace.integrals == 10
    assert m["sommerfeld.nodes"][0] == fresnel_calls    # one reflection set per node
    assert [s[1] for s in hs.trace.spans if s[4] is None] == ["cli.run_scenario"]

    mirror = traced(workloads.mirror("right", k0z, "numeric", workloads.ISOTROPIC))
    assert mirror.trace.integrals == 6
    assert "halfspace.fresnel_general" not in mirror.trace.layers


def test_self_times_partition_the_point():
    tr = traced(workloads.halfspace("absorbing", 10.0, "numeric", workloads.ISOTROPIC))
    layers = tr.trace.layers
    top = layers["cli.run_scenario"]
    assert sum(s.self_s for s in layers.values()) == pytest.approx(top.total_s, rel=1e-9)
    assert all(s.self_s >= 0 for s in layers.values())


def test_absent_layers_are_reported_not_fatal():
    targets = tracing.TARGETS + [
        ("halfspace.removed", "chipurcell.halfspace", "halfspace_reflections_v0", False),
        ("gone.module", "chipurcell.no_such_module", "f", True),
    ]
    tr = traced(workloads.mirror("left", 1.0, "numeric", workloads.ISOTROPIC), targets)
    assert tr.absent == ["gone.module", "halfspace.removed"]
    assert set(tracing.layer_metrics(tr.trace, 1)) == set(
        tracing.layer_metrics(tracing.PassTrace(), 1))


def test_uninstall_restores_the_package():
    before = cli.run_scenario
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.run_scenario is not before
    finally:
        tr.uninstall()
    assert cli.run_scenario is before


def test_batched_integrand_counts_every_node():
    tr = tracing.Tracer()
    tr.begin_pass()
    f = tr._wrap_integrand(lambda x: x * 2.0)
    f(np.arange(15.0))
    f(0.5)
    assert tr.trace.nodes == 16


@pytest.mark.parametrize("k0z", [1e-3, 0.3, 10.0, 1e3])
def test_mirror_oracle_matches_quadrature(k0z):
    z = k0z / workloads.K0
    geom = PlanarGeometry(z_m=z, handedness=Handedness.LEFT)
    curl = curl_img_scatter_numeric(geom, mirror_reflections(geom.handedness, workloads.OMEGA),
                                    workloads.OMEGA).matrix
    xx, scale = oracle.mirror_curl_xx(workloads.K0, z, -1.0)
    assert abs(curl[0, 0].real - xx.imag) <= 1e-9 * scale
    assert abs(curl[2, 2].real - 2.0 * xx.imag) <= 1e-9 * scale
    assert curl[0, 1] == 0


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed_form_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_known_defect_probe_reports_and_checks(monkeypatch):
    import json

    import run

    _, expected = run.import_package()
    reference = json.loads((HERE / "reference.json").read_text())
    checker = run.Checker("far_field_numeric", 1)
    (report,) = checker.probe_known_defects(cli, expected, reference)
    assert report["outcome"].startswith("still raises PoleError")
    assert checker.attempted == checker.failed == checker.mismatches == 0

    # an input that returns is checked against its reference
    anchor, entry = workloads.ANCHORS["far_field_numeric"][1], reference["far_field_numeric"][1]
    monkeypatch.setitem(workloads.KNOWN_DEFECTS, "far_field_numeric", [anchor])
    monkeypatch.setitem(reference["known_defects"], "far_field_numeric", [entry])
    (report,) = checker.probe_known_defects(cli, expected, reference)
    assert report["outcome"] == "returns, matches its reference"
    assert checker.mismatches == 0
    wrong = dict(entry, integrals=[[2 * re, 2 * im] for re, im in entry["integrals"]])
    monkeypatch.setitem(reference["known_defects"], "far_field_numeric", [wrong])
    (report,) = checker.probe_known_defects(cli, expected, reference)
    assert report["outcome"] == "returns, wrong"
    assert checker.mismatches == 1 and checker.attempted == 0
