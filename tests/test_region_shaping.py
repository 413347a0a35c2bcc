"""OptimizedFDA plans chosen by the measured non-covert region of a grid."""

import json
import math
import os

import numpy as np
import pytest

from fdacovert import (
    ArrayGeometry,
    FrequencyPlan,
    GridSpec,
    PolarPoint,
    RegionSpec,
    evaluate_grid,
    linear_fda_plan,
    objective_and_gradient,
    optimized_fda_plan,
    sweep,
)
from fdacovert import ellipse
from fdacovert.cli import main
from fdacovert.config import load_config
from fdacovert.fieldmap import _region_sample
from field_csv import read_field_csv

G = ArrayGeometry(n_antennas=64, carrier_hz=3e9)
BOB = PolarPoint(7.0711, math.radians(45.0))
SMALL = GridSpec(0.0, 12.0, 0.0, 12.0, 0.25)
DESK = GridSpec(0.0, 40.0, 0.0, 40.0, 0.05)
KL_Q = load_config(None, []).covertness_budget().threshold_q  # the default budget's q
FAST = [
    "--set", "grid.x_max_m=12",
    "--set", "grid.y_max_m=12",
    "--set", "grid.step_m=0.25",
    "--set", "sweep.schemes=OptimizedFDA",
]


def j_of(offsets):
    return objective_and_gradient(G, BOB, np.asarray(offsets, dtype=float))[0]


def data_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if not line.startswith("#")][1:]


@pytest.mark.parametrize(
    "g",
    [G, ArrayGeometry(n_antennas=64, carrier_hz=3e9, spacing_m=0.04)],
    ids=["half-wavelength", "spacing-0.04"],
)
def test_sweep_rows_with_equal_inputs_are_equal(g):
    # a sweep over N keeps g's spacing, so its N=64 row is the F=1 MHz row
    by_n = sweep("n_antennas", (16, 64), ("OptimizedFDA",), g, BOB, 1e6, SMALL)
    by_f = sweep("f_delta", (0.5e6, 1e6), ("OptimizedFDA",), g, BOB, 1e6, SMALL)
    n64, f1 = by_n[1], by_f[1]
    assert (n64.value, f1.value) == (64.0, 1e6)
    assert (n64.mean_area_fraction, n64.std_area_fraction, n64.mean_area_m2, n64.n_seeds) == (
        f1.mean_area_fraction, f1.std_area_fraction, f1.mean_area_m2, f1.n_seeds
    )


@pytest.mark.parametrize(
    "region",
    [
        RegionSpec(DESK, "fraction", 0.1),
        RegionSpec(DESK, "kl", KL_Q),
        RegionSpec(SMALL, "fraction", 0.1),
    ],
    ids=["desk-fraction", "desk-kl", "small-fraction"],
)
def test_region_plan_stays_in_box_and_above_j_floor(region):
    box = 0.5e6
    plan = optimized_fda_plan(G, BOB, 1e6, region=region)
    # the region moved the plan away from J's optimum ...
    assert plan.offsets_hz != optimized_fda_plan(G, BOB, 1e6).offsets_hz
    # ... but not out of the box, nor below J of the zero and clipped linear plans
    assert np.max(np.abs(plan.offsets())) <= box
    clipped_linear = np.clip(linear_fda_plan(G, 1e6).offsets(), -box, box)
    assert j_of(plan.offsets_hz) >= j_of(np.zeros(64))
    assert j_of(plan.offsets_hz) >= j_of(clipped_linear)


def test_region_search_counts_its_j_evaluations(monkeypatch):
    # every J evaluation goes through the ellipse module's binding, so a
    # spy there (as perfbench's trace counter is) sees the region search's
    calls = []
    inner = ellipse.objective_and_gradient

    def counting(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(ellipse, "objective_and_gradient", counting)
    optimized_fda_plan(G, BOB, 1e6)
    alone = len(calls)
    optimized_fda_plan(G, BOB, 1e6, region=RegionSpec(DESK, "fraction", 0.1))
    assert len(calls) - alone > alone


def test_region_plan_respects_an_overridden_box():
    box = 0.2e6
    region = RegionSpec(DESK, "fraction", 0.1)
    plan = optimized_fda_plan(G, BOB, 1e6, box_half_width_hz=box, region=region)
    ramp = np.clip(((64 + 1) / 2.0 - np.arange(1, 65)) * (2.0 * box), -box, box)
    assert np.max(np.abs(plan.offsets())) <= box
    assert j_of(plan.offsets_hz) >= max(j_of(np.zeros(64)), j_of(ramp))


def test_kl_region_plans_are_reproducible():
    region = RegionSpec(DESK, "kl", KL_Q)
    a = optimized_fda_plan(G, BOB, 1e6, region=region)
    b = optimized_fda_plan(G, BOB, 1e6, region=RegionSpec(DESK, "kl", KL_Q))
    assert a == b


def test_kl_optimize_is_byte_identical_across_runs(tmp_path):
    blobs = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert main(["optimize", "--out", out, "--set", "threshold.mode=kl"]) == 0
        with open(os.path.join(out, "optimize.json"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("mode,value", [("kl", 1.0), ("fraction", 1.0)])
def test_region_that_cannot_shrink_keeps_the_ellipse_optimum(mode, value):
    # q = 1 leaves no node near the threshold; a fraction of 1 leaves only
    # the focus cell at it, and no plan can take that cell out
    plan = optimized_fda_plan(G, BOB, 1e6, region=RegionSpec(DESK, mode, value))
    assert plan == optimized_fda_plan(G, BOB, 1e6)


@pytest.mark.parametrize("mode,value", [("fraction", 0.1), ("kl", KL_Q)])
def test_relaxed_count_gradient_matches_differences(mode, value):
    rng = np.random.default_rng(5)
    f = rng.uniform(-0.5e6, 0.5e6, 64)
    sample = _region_sample(G, BOB, [f, np.zeros(64)], RegionSpec(DESK, mode, value))
    _, _, grad = sample.evaluate(f)
    # the phases are float32: a step of 2 kHz (~1e-3 rad) keeps rounding
    # well below the change, and is still small against the 1 MHz box
    h = 2000.0
    directions = (
        np.sign(grad),
        np.eye(64)[int(np.argmax(np.abs(grad)))],
        rng.choice([-1.0, 1.0], 64),
    )
    for u in directions:
        fd = (sample.evaluate(f + h * u)[1] - sample.evaluate(f - h * u)[1]) / (2 * h)
        assert fd == pytest.approx(float(grad @ u), rel=1e-2)


@pytest.mark.parametrize("mode,value", [("fraction", 0.1), ("kl", KL_Q)])
def test_sample_ratios_match_the_float64_map(mode, value):
    # ln(value / threshold) of the searched nodes, against what
    # extract_noncovert compares on the map; float32 phases (rounding
    # ~1e-6 rad) bound the difference far below 1e-3
    f = np.random.default_rng(6).uniform(-0.5e6, 0.5e6, 64)
    sample = _region_sample(G, BOB, [f], RegionSpec(DESK, mode, value))
    fmap = evaluate_grid(G, FrequencyPlan(tuple(f), "OptimizedFDA"), BOB, DESK)
    nodes = slice(None, -1) if mode == "fraction" else slice(None)  # minus the focus row
    x, y = sample.x[nodes], sample.y[nodes]
    cells = [DESK.cell_of(a, b) for a, b in zip(x, y)]
    mapped = np.array([fmap.values[c] for c in cells])
    if mode == "kl":
        r = np.hypot(x, y)
        beta_sq = (G.wavelength_m / (4.0 * math.pi * r)) ** 2
        mapped = mapped * fmap.metadata["bob_cell_raw_correlation"] * beta_sq / 64
    assert len(cells) > 100
    np.testing.assert_allclose(sample.ln_ratio(f), np.log(mapped / value), rtol=0, atol=1e-3)


def test_optimize_plan_is_the_plan_region_and_heatmap_build(tmp_path):
    out = str(tmp_path / "out")
    assert main(["optimize", "--out", out] + FAST) == 0
    plan_path = os.path.join(out, "optimize.json")
    with open(plan_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["converged"]
    assert payload["objective"] == j_of(payload["offsets_hz"])

    built = str(tmp_path / "built")
    loaded = str(tmp_path / "loaded")
    assert main(["region", "--out", built] + FAST) == 0
    assert main(["region", "--out", loaded, "--plan", plan_path] + FAST) == 0
    for name in ("region_summary.csv", "region_OptimizedFDA.csv"):
        assert data_rows(os.path.join(built, name)) == data_rows(os.path.join(loaded, name))

    assert main(["heatmap", "--out", built] + FAST) == 0
    _, _, _, values = read_field_csv(os.path.join(built, "heatmap_OptimizedFDA.csv"))
    plan = FrequencyPlan(tuple(payload["offsets_hz"]), "OptimizedFDA")
    expected = evaluate_grid(G, plan, BOB, SMALL).values.ravel()
    np.testing.assert_array_equal(values, expected)


def test_optimized_region_with_focus_off_grid_keeps_its_refusal(tmp_path, capsys):
    off_grid = ["--set", "grid.x_max_m=3", "--set", "grid.y_max_m=3",
                "--set", "grid.step_m=0.25", "--set", "sweep.schemes=OptimizedFDA"]
    out = str(tmp_path / "out")
    with pytest.warns(UserWarning, match="outside the grid"):
        assert main(["region", "--out", out] + off_grid) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "focus" in err
    with pytest.warns(UserWarning, match="outside the grid"):
        assert main(["region", "--out", out, "--set", "threshold.mode=kl"] + off_grid) == 0
    assert os.path.exists(os.path.join(out, "region_OptimizedFDA.csv"))
