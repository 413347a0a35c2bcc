"""Self-test of the benchmark: its output checks pass clean outputs and reject
deliberately corrupted ones, on a 1 m grid (41 x 41 cells, so every cell is a
sample cell) that runs in seconds.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import checks
import spans
from run import END_TO_END, PER_LAYER, ROOT, SRC, WORK
from workloads import make_workload

COARSE = {"grid.step_m": 1.0, "mc.n_samples": 20_000}


def coarse(name: str):
    w = make_workload(name, seed=7)
    return dataclasses.replace(w, overrides={**w.overrides, **COARSE})


@pytest.fixture(scope="module")
def outputs():
    """Clean CLI outputs of every workload on the coarse grid, by name."""
    os.makedirs(WORK, exist_ok=True)
    base = tempfile.mkdtemp(dir=WORK, prefix="selftest-")
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        dirs = {}
        for name in ("emit-maps", "sweep-kernel", "rate-fine-kl"):
            w = coarse(name)
            out = dirs[name] = os.path.join(base, name)
            for label in w.commands:
                subprocess.run([sys.executable, "-m", "fdacovert.cli"] + w.argv(label, out),
                               check=True, env=env, cwd=ROOT, capture_output=True, timeout=120)
        yield dirs
    finally:
        shutil.rmtree(base)


@pytest.fixture
def copy_of(outputs):
    made = []

    def copy(name):
        made.append(tempfile.mkdtemp(dir=WORK, prefix="selftest-copy-"))
        return shutil.copytree(outputs[name], os.path.join(made[-1], name))

    yield copy
    for d in made:
        shutil.rmtree(d)


def verdicts(name: str, out: str) -> dict:
    return {o.name: o for o in checks.check_round(out, coarse(name))}


def rewrite(path: str, edit) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    lines = edit(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def data_start(lines) -> int:
    """Index of the first data row: after the metadata and the header line."""
    return next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1


@pytest.mark.parametrize("name", ["emit-maps", "sweep-kernel", "rate-fine-kl"])
def test_clean_outputs_pass(outputs, name):
    bad = [o for o in verdicts(name, outputs[name]).values() if not o.ok and not o.known_fault]
    assert not bad, bad


def test_flipped_mask_cell_is_rejected(copy_of):
    out = copy_of("emit-maps")

    def flip(lines):
        i = data_start(lines) + 41 * 20 + 7
        x, y, v = lines[i].split(",")
        lines[i] = f"{x},{y},{1 - int(v)}"
        return lines

    rewrite(os.path.join(out, "region_LinearFDA.csv"), flip)
    v = verdicts("emit-maps", out)
    assert not v["region_LinearFDA.csv"].ok
    assert not v["region_summary.csv"].ok
    assert v["region_LPA.csv"].ok


def test_perturbed_heatmap_value_is_rejected(copy_of):
    out = copy_of("emit-maps")

    def perturb(lines):
        i = data_start(lines) + 41 * 30 + 12
        x, y, v = lines[i].split(",")
        lines[i] = f"{x},{y},{float(v) + 1e-7!r}"
        return lines

    rewrite(os.path.join(out, "heatmap_RandomFDA.csv"), perturb)
    v = verdicts("emit-maps", out)
    assert not v["heatmap_RandomFDA.csv"].ok
    assert v["heatmap_LPA.csv"].ok


def test_edited_objective_is_rejected(copy_of):
    out = copy_of("emit-maps")
    path = os.path.join(out, "optimize.json")
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data["objective"] *= 1.0 + 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    assert not verdicts("emit-maps", out)["optimize.json"].ok


def test_edited_sweep_fraction_is_rejected(copy_of):
    out = copy_of("sweep-kernel")

    def edit(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith("LinearFDA,16,"))
        cols = lines[i].split(",")
        cols[2] = repr(float(cols[2]) + 5 / 41**2)
        lines[i] = ",".join(cols)
        return lines

    rewrite(os.path.join(out, "sweep_n.csv"), edit)
    v = verdicts("sweep-kernel", out)
    assert not v["LinearFDA reference map"].ok
    assert not v["sweep_n.csv"].ok


@pytest.mark.parametrize("column", ["point_rate", "area_fraction", "mean_rate"])
def test_edited_rate_row_is_rejected(copy_of, column):
    out = copy_of("rate-fine-kl")

    def edit(lines):
        i = data_start(lines)
        header = lines[i - 1].split(",")
        cols = lines[i].split(",")
        j = header.index(column)
        cols[j] = repr(float(cols[j]) * 1.2 + 0.05)
        lines[i] = ",".join(cols)
        return lines

    rewrite(os.path.join(out, "rate.csv"), edit)
    bad = [o.name for o in verdicts("rate-fine-kl", out).values() if not o.ok]
    assert any(name.startswith("rate LinearFDA") and name.endswith(column) for name in bad), bad


def test_known_fault_rows_are_flagged_not_wrong(outputs):
    v = verdicts("sweep-kernel", outputs["sweep-kernel"])
    faults = [o for o in v.values() if o.name.startswith("OptimizedFDA <= LPA")]
    assert len(faults) == 7
    assert all(o.known_fault == (not o.ok) for o in faults)


def test_self_time_excludes_child_spans():
    rec = [
        {"pid": 1, "id": 0, "parent": None, "name": "cli.main", "start": 0.0, "end": 10.0},
        {"pid": 1, "id": 1, "parent": 0, "name": "fieldmap.mc", "start": 1.0, "end": 6.0, "samples": 5},
        {"pid": 1, "id": 2, "parent": 1, "name": "fieldmap.evaluate", "start": 1.0, "end": 4.0,
         "scheme": "LPA", "cells": 10, "antennas": 2},
    ]
    m = spans.layer_metrics(rec, {})
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["fieldmap.mc_s"] == pytest.approx(2.0)
    assert m["fieldmap.cell_antenna_rate"] == pytest.approx(20 / 3.0 / 1e6)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == ["emit-maps", "sweep-kernel", "rate-fine-kl"]
