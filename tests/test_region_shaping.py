"""OptimizedFDA plans chosen by the measured non-covert region of a grid."""

import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from fdacovert import (
    ArrayGeometry,
    DomainError,
    FrequencyPlan,
    GridSpec,
    PolarPoint,
    RegionSpec,
    evaluate_grid,
    linear_fda_plan,
    lpa_plan,
    noncovert_region,
    objective_and_gradient,
    optimized_fda_plan,
    sweep,
)
from fdacovert import ellipse
from fdacovert.cli import main
from fdacovert.config import load_config
from fdacovert.fieldmap import _region_sample, _sincos, _sincos_scratch
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
def test_sample_ratios_match_the_float64_map(mode, value):
    # value / threshold of the searched nodes, against what extract_noncovert
    # compares on the map; both take float64 phases through _sincos, formed
    # in other orders, so they differ by ~1e-12
    f = np.random.default_rng(6).uniform(-0.5e6, 0.5e6, 64)
    sample = _region_sample(G, BOB, [f], RegionSpec(DESK, mode, value))
    fmap = evaluate_grid(G, FrequencyPlan(tuple(f), "OptimizedFDA"), BOB, DESK)
    nodes = slice(None, -1) if mode == "fraction" else slice(None)  # minus the focus node
    x, y = sample.x[nodes], sample.y[nodes]
    cells = [DESK.cell_of(a, b) for a, b in zip(x, y)]
    mapped = np.array([fmap.values[c] for c in cells])
    if mode == "kl":
        r = np.hypot(x, y)
        beta_sq = (G.wavelength_m / (4.0 * math.pi * r)) ** 2
        mapped = mapped * fmap.metadata["bob_cell_raw_correlation"] * beta_sq / 64
    assert len(cells) > 100
    np.testing.assert_allclose(sample.ratio(sample.sums(f)), mapped / value, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("mode,value", [("fraction", 0.1), ("kl", KL_Q)])
def test_batched_phasors_are_the_one_offset_phasors(mode, value, n):
    # the search asks _sincos for several (element, offset) phasors at once;
    # each must be bit for bit one call's _sincos(carrier[n] (1 + f / f_c)),
    # and the sums those phasors added in element order
    g = ArrayGeometry(n_antennas=n, carrier_hz=3e9)
    box = 0.5e6
    f = np.random.default_rng(n).uniform(-box, box, n)
    sample = _region_sample(g, BOB, [f], RegionSpec(DESK, mode, value))
    scratch = _sincos_scratch(sample.x.size)

    def one(e, offset):
        return _sincos(sample.carrier[e] * (1.0 + offset / g.carrier_hz), scratch).copy()

    def one_key(sums):  # one plan's key, from one plan's sums
        power = sums[0] * sums[0]
        power += sums[1] * sums[1]
        if mode == "fraction":
            power = power[:-1] / power[-1]
        rho = power * sample.scale
        soft = rho * rho
        soft *= soft
        soft /= soft + 1.0
        return int(np.count_nonzero(rho >= 1.0)), float(soft.sum())

    reference = np.zeros((2, sample.x.size))
    for e in range(n):
        reference += one(e, f[e])
    assert sample.x.size > 100 and np.array_equal(sample.sums(f), reference)
    for e in (0, n // 2, n - 1):
        offsets = [f[e], -box, 0.0, box]  # an element at its offset and at its three levels
        batched = sample.phasors([e] * len(offsets), offsets)
        for phasor, offset in zip(batched, offsets):
            assert np.array_equal(phasor, one(e, offset))
        trials = (reference - batched[0]) + batched[1:]
        assert sample.keys(trials) == [one_key(t) for t in trials]


@pytest.mark.parametrize("mode,value", [("fraction", 1.5), ("kl", 0.0), ("dB", 0.1)])
def test_region_search_refuses_what_the_map_paths_refuse(mode, value):
    g = ArrayGeometry(n_antennas=16, carrier_hz=3e9)
    with pytest.raises(DomainError) as refused:
        noncovert_region(g, lpa_plan(g), BOB, SMALL, mode, value)
    with pytest.raises(DomainError) as searched:
        optimized_fda_plan(g, BOB, 1e6, region=RegionSpec(SMALL, mode, value))
    assert str(searched.value) == str(refused.value)


def test_optimized_fraction_rows_lie_at_or_below_lpa():
    # at the defaults: the 0.05 m grid and plan seed 0
    for parameter, values in (("n_antennas", (16, 32, 64)),
                              ("f_delta", (0.25e6, 0.5e6, 1e6, 2e6))):
        rows = sweep(parameter, values, ("LPA", "OptimizedFDA"), G, BOB, 1e6, DESK)
        lpa, opt = rows[0::2], rows[1::2]
        assert [r.scheme for r in lpa + opt] == ["LPA"] * len(values) + ["OptimizedFDA"] * len(values)
        for a, b in zip(lpa, opt):
            assert b.mean_area_fraction <= a.mean_area_fraction, (parameter, b.value)


def test_optimized_kl_rows_fall_with_the_increment():
    # not asserted: kl rows at or below LPA's.  At 0.25 MHz the J floor
    # (J of the zero plan and of the box-clipped ramp) excludes LPA itself,
    # and the row stays just above it (0.0087204 against 0.0087063)
    rows = sweep("f_delta", (0.25e6, 0.5e6, 1e6, 2e6), ("OptimizedFDA",), G, BOB, 1e6, DESK,
                 threshold_mode="kl", threshold_value=KL_Q)
    fracs = [r.mean_area_fraction for r in rows]
    assert fracs == sorted(fracs, reverse=True), fracs


def _dispatch_targets():
    """numpy's SIMD dispatch targets beyond its baseline that this CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    present = {name for name, on in umath.__cpu_features__.items() if on}
    return [name for name in umath.__cpu_dispatch__ if name in present]


def test_optimized_outputs_do_not_depend_on_simd_dispatch(tmp_path):
    # NPY_DISABLE_CPU_FEATURES makes numpy take its baseline loops in the
    # process it is set for; on a CPU without dispatch targets it changes nothing
    disabled = " ".join(_dispatch_targets())
    if not disabled:
        return
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    runs = [
        ("optimize", []),
        ("optimize", ["threshold.mode=kl"]),
        ("optimize", ["geometry.n_antennas=16"]),
        ("heatmap", ["grid.x_max_m=12", "grid.y_max_m=12", "grid.step_m=0.25",
                     "sweep.schemes=OptimizedFDA"]),
    ]
    outputs = {}
    for label, features in (("default", ""), ("disabled", disabled)):
        code = textwrap.dedent(
            f"""
            from fdacovert.cli import main
            for i, (sub, sets) in enumerate({runs!r}):
                args = [sub, "--out", {str(tmp_path / label)!r} + f"/{{i}}"]
                for s in sets:
                    args += ["--set", s]
                assert main(args) == 0, args
            """
        )
        env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=features)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        base = tmp_path / label
        outputs[label] = {str(p.relative_to(base)): p.read_bytes()
                          for p in base.rglob("*") if p.is_file()}
    assert len(outputs["default"]) == 4
    changed = sorted(k for k, v in outputs["default"].items() if outputs["disabled"].get(k) != v)
    assert not changed, f"with {disabled} disabled, {changed} changed"


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy without mode="dicts"
        return "unknown"


def test_outputs_do_not_depend_on_the_openblas_kernel(tmp_path):
    # OPENBLAS_CORETYPE makes an OpenBLAS built with DYNAMIC_ARCH use the
    # kernels of that CPU type in the process it is set for: Haswell's
    # (AVX2) and Prescott's (SSE3) round dot products differently from
    # SkylakeX's.  With a BLAS other than OpenBLAS the variable does
    # nothing, and the three runs agree trivially.  J (optimize) must not
    # use BLAS dot, and the masks, whose float32 phases are sgemm products,
    # are certified to be the float64 value path's whatever the kernel
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    small = ["grid.x_max_m=12", "grid.y_max_m=12", "grid.step_m=0.1"]
    runs = [
        ("optimize", ["geometry.n_antennas=16"]),
        ("optimize", ["geometry.n_antennas=16", "threshold.mode=kl"]),
        ("region", small),
        ("region", small + ["threshold.mode=kl"]),
    ]
    code = textwrap.dedent(
        f"""
        import sys
        from fdacovert.cli import main
        for i, (sub, sets) in enumerate({runs!r}):
            args = [sub, "--out", sys.argv[1] + f"/{{i}}"]
            for s in sets:
                args += ["--set", s]
            assert main(args) == 0, args
        """
    )
    outputs = {}
    for coretype in (None, "Haswell", "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = src
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        base = tmp_path / str(coretype)
        proc = subprocess.run([sys.executable, "-c", code, str(base)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs[coretype] = {str(p.relative_to(base)): p.read_bytes()
                             for p in base.rglob("*") if p.is_file()}
    assert len(outputs[None]) == 2 + 2 * 5  # optimize.json; 4 region CSVs and a summary
    for coretype in ("Haswell", "Prescott"):
        changed = sorted(k for k, v in outputs[None].items() if outputs[coretype].get(k) != v)
        assert not changed, f"BLAS {_blas_name()}, OPENBLAS_CORETYPE={coretype}: {changed} changed"


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
