"""CLI: config parsing, CSV emission, subcommands, determinism, exit codes."""

import concurrent.futures
import hashlib
import json
import math
import multiprocessing
import os
import re
import stat
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdacovert import ArrayGeometry, GridSpec, PolarPoint, evaluate_grid, lpa_plan
from fdacovert import cli, fieldmap
from fdacovert._csvtext import grid_blocks, grid_text
from fdacovert.cli import emit_csv, fmt, main
from fdacovert.config import ConfigError, build_config, load_config
from field_csv import read_field_csv

# keep CLI-driven runs quick: a coarse grid and small sweeps
FAST = [
    "--set", "grid.x_max_m=12",
    "--set", "grid.y_max_m=12",
    "--set", "grid.step_m=0.25",
    "--set", "sweep.seeds=0,1",
    "--set", "sweep.n_values=8,16",
    "--set", "sweep.f_delta_values_hz=0.5e6,1e6",
    "--set", "mc.n_samples=2000",
]


def run_cli(args):
    return main(list(args))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_fmt_round_trip_shortest():
    assert fmt(1.0) == "1"
    assert fmt(0.1) == "0.1"
    assert fmt(1e-9) == "1e-09"
    assert fmt(2.5) == "2.5"
    assert fmt(3) == "3"
    assert fmt(None) == ""
    assert fmt(True) == "1"
    assert float(fmt(0.30000000000000004)) == 0.30000000000000004


def test_emit_csv_empty_table(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_csv(path, ["a", "b"], [], {"config_sha256": "x"})
    lines = read_bytes(path).decode().splitlines()
    assert lines[0] == "# config_sha256=x"
    assert lines[1] == "a,b"
    assert len(lines) == 2


def test_emit_csv_no_partial_file_on_failure(tmp_path):
    path = str(tmp_path / "boom.csv")

    def rows():
        yield (1.0,)
        raise RuntimeError("mid-write failure")

    with pytest.raises(RuntimeError):
        emit_csv(path, ["v"], rows(), {})
    assert not os.path.exists(path)
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp_")]


def test_field_csv_round_trip(tmp_path):
    g = ArrayGeometry(16, 3e9)
    bob = PolarPoint(7.0711, math.radians(45))
    fmap = evaluate_grid(g, lpa_plan(g), bob, GridSpec(0, 8, 0, 8, 0.5))
    rows = []
    xs, ys = fmap.spec.xs(), fmap.spec.ys()
    for iy in range(fmap.spec.n_y):
        for ix in range(fmap.spec.n_x):
            rows.append((xs[ix], ys[iy], fmap.values[iy, ix]))
    path = str(tmp_path / "field.csv")
    emit_csv(path, ["x_m", "y_m", "normalized_power"], rows, {"k": "v"})
    meta, x, y, v = read_field_csv(path)
    assert meta["k"] == "v"
    np.testing.assert_array_equal(v.reshape(fmap.values.shape), fmap.values)


def test_default_config_matches_reference_setup():
    cfg = build_config()
    assert cfg.n_antennas == 64
    assert cfg.carrier_hz == 3e9
    assert cfg.f_delta_hz == 1e6
    assert cfg.blocklength == 100
    assert cfg.delta_fep == 1e-5
    assert cfg.bob_r_m == 7.0711
    assert cfg.bob_theta_deg == 45.0
    assert cfg.p_t_dbm == 20.0
    assert cfg.sigma_b_dbm == cfg.sigma_w_dbm == -60.0
    assert (cfg.x_min_m, cfg.x_max_m, cfg.y_min_m, cfg.y_max_m) == (0, 40, 0, 40)
    assert cfg.step_m == 0.05
    assert cfg.threshold_mode == "fraction"
    assert cfg.threshold_value == 0.1
    assert cfg.link_budget().transmit_power_w == pytest.approx(0.1, rel=1e-12)
    assert cfg.link_budget().noise_bob_w == pytest.approx(1e-9, rel=1e-12)


def test_config_file_and_overrides(tmp_path):
    text = "\n".join(
        [
            "# comment",
            "[geometry]",
            "n_antennas = 32",
            "[plan]",
            "f_delta_hz = 2e6",
        ]
    )
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    cfg = load_config(str(path), overrides=["bob.theta_deg=30"])
    assert cfg.n_antennas == 32
    assert cfg.f_delta_hz == 2e6
    assert cfg.bob_theta_deg == 30.0


def test_config_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[geometry]\nn_antennas = sixty-four\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(path))
    path.write_text("[geometry]\nunknown_key = 3\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(path))
    path.write_text("n_antennas = 3\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(str(path))


def test_config_semantic_validation():
    with pytest.raises(ConfigError, match=re.escape(
        "--set 'sweep.schemes=LPA,Bogus': unknown scheme 'Bogus'"
    )):
        build_config(overrides=["sweep.schemes=LPA,Bogus"])
    with pytest.raises(ConfigError, match="unknown option plan.scheme"):
        build_config(overrides=["plan.scheme=Bogus"])
    with pytest.raises(ConfigError, match="mode"):
        build_config(overrides=["threshold.mode=absolute"])
    with pytest.raises(ConfigError, match="fraction"):
        build_config(overrides=["threshold.value=1.5"])
    with pytest.raises(ConfigError):
        build_config(overrides=["bob.theta_deg=90"])
    with pytest.raises(ConfigError):
        build_config(overrides=["budget.blocklength=0"])
    # a seed seeds numpy's Generator, which takes no negative one
    for override in ("plan.seed=-1", "mc.seed=-5", "sweep.seeds=0,-2"):
        option, text = override.split("=")
        with pytest.raises(ConfigError, match=re.escape(
            f"--set {override!r}: {option} must be non-negative, got {text!r}"
        )):
            build_config(overrides=[override])


@pytest.mark.parametrize(
    "text, overrides, where",
    [
        ("[geometry]\n[ ]\n", [], "bad.cfg, line 2: empty section name"),
        ("[geometry]\nn_antennas 64\n", [], "bad.cfg, line 2: expected 'key = value'"),
        ("", ["n_antennas=64"], "--set 'n_antennas=64': expected section.key=value"),
    ],
)
def test_malformed_config_text_is_a_config_error(tmp_path, capsys, text, overrides, where):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(where)):
        load_config(str(path), overrides)
    sets = [a for o in overrides for a in ("--set", o)]
    out = tmp_path / "out"
    assert run_cli(["region", "--config", str(path), "--out", str(out)] + sets) == 1
    assert where in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad.cfg"]


def test_config_hash_tracks_effective_values():
    a = build_config()
    b = build_config(overrides=["plan.seed=1"])
    assert a.sha256() != b.sha256()
    assert a.sha256() == build_config().sha256()


def test_cli_exit_codes(tmp_path, capsys):
    assert run_cli(["selftest"]) == 0
    assert run_cli(["region", "--set", "sweep.schemes=LPA,Nope"]) == 1
    err = capsys.readouterr().err
    assert "config error: --set 'sweep.schemes=LPA,Nope': unknown scheme 'Nope'" in err
    assert run_cli(["region", "--set", "plan.scheme=Nope"]) == 1
    assert "unknown option plan.scheme" in capsys.readouterr().err
    assert run_cli(["rate", "--set", "mc.seed=-5"]) == 1
    assert "mc.seed must be non-negative" in capsys.readouterr().err
    assert run_cli(["no-such-subcommand"]) == 1
    assert run_cli(["region", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_region_and_summary_outputs(tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(["region", "--out", out] + FAST) == 0
    summary = read_bytes(os.path.join(out, "region_summary.csv")).decode().splitlines()
    header_idx = next(i for i, l in enumerate(summary) if not l.startswith("#"))
    assert summary[header_idx] == "scheme,n_noncovert,area_m2,area_fraction"
    rows = [l.split(",") for l in summary[header_idx + 1 :]]
    assert [r[0] for r in rows] == ["LPA", "LinearFDA", "RandomFDA", "OptimizedFDA"]
    for scheme in ("LPA", "LinearFDA", "RandomFDA", "OptimizedFDA"):
        assert os.path.exists(os.path.join(out, f"region_{scheme}.csv"))


def test_sweep_fdelta_lpa_constant(tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(["sweep-fdelta", "--out", out] + FAST) == 0
    lines = read_bytes(os.path.join(out, "sweep_fdelta.csv")).decode().splitlines()
    data = [l.split(",") for l in lines if not l.startswith("#")][1:]
    lpa = {row[2] for row in data if row[0] == "LPA"}
    assert len(lpa) == 1


def test_every_subcommand_is_byte_deterministic(tmp_path):
    for sub in ("heatmap", "region", "sweep-n", "sweep-fdelta", "rate", "optimize"):
        out_a = str(tmp_path / f"{sub}_a")
        out_b = str(tmp_path / f"{sub}_b")
        assert run_cli([sub, "--out", out_a] + FAST) == 0
        assert run_cli([sub, "--out", out_b] + FAST) == 0
        files_a = sorted(os.listdir(out_a))
        assert files_a == sorted(os.listdir(out_b))
        assert files_a, f"{sub} wrote nothing"
        for name in files_a:
            assert read_bytes(os.path.join(out_a, name)) == read_bytes(
                os.path.join(out_b, name)
            ), f"{sub}/{name} differs between identical runs"


def test_optimize_then_region_pipeline(tmp_path):
    # region --plan maps optimize's plan as plain region maps the plan it builds
    for mode in ("fraction", "kl"):
        args = FAST + ["--set", f"threshold.mode={mode}", "--set", "sweep.schemes=OptimizedFDA"]
        out, plain = str(tmp_path / mode), str(tmp_path / f"{mode}_plain")
        assert run_cli(["optimize", "--out", out] + args) == 0
        plan_path = os.path.join(out, "optimize.json")
        with open(plan_path) as fh:
            payload = json.load(fh)
        assert len(payload["offsets_hz"]) == 64
        assert max(abs(v) for v in payload["offsets_hz"]) <= payload["box_half_width_hz"]
        assert payload["converged"]
        assert payload["iterations"] == 1

        assert run_cli(["region", "--out", out, "--plan", plan_path] + args) == 0
        summary = read_bytes(os.path.join(out, "region_summary.csv")).decode().splitlines()
        rows = [l.split(",") for l in summary if not l.startswith("#")][1:]
        assert rows[0][0] == "OptimizedFDA"
        assert float(rows[0][3]) >= 0.0
        assert run_cli(["region", "--out", plain] + args) == 0
        name = "region_OptimizedFDA.csv"
        assert read_bytes(os.path.join(out, name)) == read_bytes(os.path.join(plain, name))


def test_heatmap_output_parses_back(tmp_path):
    out = str(tmp_path / "out")
    args = ["heatmap", "--out", out] + FAST + ["--set", "sweep.schemes=LPA"]
    assert run_cli(args) == 0
    meta, x, y, v = read_field_csv(os.path.join(out, "heatmap_LPA.csv"))
    assert meta["scheme"] == "LPA"
    assert "config_sha256" in meta
    n = int(round(12 / 0.25)) + 1
    assert len(v) == n * n
    # y-outer row-major ordering
    assert x[0] == 0.0 and x[1] == 0.25
    assert y[0] == 0.0 and y[n] == 0.25
    assert np.nanmax(v) == 1.0


def test_rate_output_rows(tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(["rate", "--out", out] + FAST) == 0
    lines = read_bytes(os.path.join(out, "rate.csv")).decode().splitlines()
    data = [l.split(",") for l in lines if not l.startswith("#")]
    header, rows = data[0], data[1:]
    assert header[0] == "scheme"
    # RandomFDA appears once per sweep seed, the rest once
    schemes = [r[0] for r in rows]
    assert schemes.count("RandomFDA") == 2
    assert schemes.count("LPA") == 1
    for r in rows:
        assert 0.0 <= float(r[2]) <= float(r[4]) + 1e-12


DEFAULT_DESCRIBE = [
    "bob.r_m=7.0711",
    "bob.theta_deg=45.0",
    "budget.blocklength=100",
    "budget.delta_fep=1e-05",
    "budget.epsilon=1.0",
    "budget.p_t_dbm=20.0",
    "budget.sigma_b_dbm=-60.0",
    "budget.sigma_w_dbm=-60.0",
    "geometry.carrier_hz=3000000000.0",
    "geometry.n_antennas=64",
    "geometry.spacing_m=None",
    "grid.max_cells=10000000",
    "grid.step_m=0.05",
    "grid.x_max_m=40.0",
    "grid.x_min_m=0.0",
    "grid.y_max_m=40.0",
    "grid.y_min_m=0.0",
    "mc.n_samples=100000",
    "mc.seed=2025",
    "plan.box_half_width_hz=None",
    "plan.f_delta_hz=1000000.0",
    "plan.seed=0",
    "sweep.f_delta_values_hz=250000.0,500000.0,1000000.0,2000000.0",
    "sweep.n_values=16,32,64",
    "sweep.schemes=LPA,LinearFDA,RandomFDA,OptimizedFDA",
    "sweep.seeds=0,1,2,3,4,5,6,7,8,9",
    "threshold.mode=fraction",
    "threshold.value=0.1",
]


def test_config_table_is_pinned_and_round_trips():
    # describe() feeds every output header and config_sha256: pin it
    default = build_config()
    assert default.describe() == DEFAULT_DESCRIBE
    assert default.sha256() == (
        "6150d831daa440e279faf84c1bf25599a419474d038e050c8c525d82e289c5b0"
    )
    custom = build_config(overrides=[
        "geometry.spacing_m=0.04", "plan.box_half_width_hz=2e6",
        "sweep.schemes=LPA,OptimizedFDA", "sweep.f_delta_values_hz=1e5,3.5e6",
        "threshold.mode=kl", "mc.seed=7",
    ])
    for cfg in (default, custom):
        # an unset optional value prints as None and is written back empty
        pairs = [l[: -len("None")] if l.endswith("=None") else l for l in cfg.describe()]
        assert len(pairs) == 28
        from_set = build_config(overrides=pairs)
        sections = {}
        for pair in pairs:
            dotted, value = pair.split("=", 1)
            section, key = dotted.split(".", 1)
            sections.setdefault(section, []).append(f"{key} = {value}")
        text = "\n".join(
            f"[{s}]\n" + "\n".join(lines) for s, lines in sections.items()
        )
        from_file = build_config(text, source="all.cfg")
        assert from_set == cfg and from_file == cfg
        assert from_set.sha256() == from_file.sha256() == cfg.sha256()


@pytest.mark.parametrize("sub", ["optimize", "region"])
@pytest.mark.parametrize("box", ["0", "-1"])
def test_non_positive_box_is_a_config_error(tmp_path, capsys, sub, box):
    out = str(tmp_path / "out")
    args = [sub, "--out", out, "--set", f"plan.box_half_width_hz={box}"] + FAST
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "box_half_width_hz" in err
    assert "--set 'plan.box_half_width_hz" in err
    assert not os.path.exists(out) or not os.listdir(out)


ZERO_F_DELTA = ["plan.f_delta_hz=0", "plan.box_half_width_hz=1e5"]
NO_SEEDS = ["sweep.schemes=LPA,RandomFDA", "sweep.seeds="]


@pytest.mark.parametrize(
    "sub, overrides, code, name",
    [
        ("region", ["grid.step_m=nan"], 1, "step_m"),
        ("region", ["grid.x_max_m=inf"], 1, "grid extents"),
        ("region", ["budget.epsilon=nan", "threshold.mode=kl"], 1, "epsilon"),
        ("region", ["plan.f_delta_hz=nan", "sweep.schemes=LinearFDA"], 2, "f_delta_hz"),
        # a box override does not stand in for the plan's base increment
        ("region", ZERO_F_DELTA + ["sweep.schemes=OptimizedFDA"], 2, "f_delta_hz"),
        ("optimize", ZERO_F_DELTA, 2, "f_delta_hz"),
        # only a blank spacing means half a wavelength
        ("region", ["geometry.spacing_m=0"], 1, "spacing_m"),
        # sigma_w is checked where it is read, by the covertness budget
        ("region", ["budget.sigma_w_dbm=nan"], 1, "noise_willie_w"),
        ("sweep-n", NO_SEEDS, 1, "sweep.seeds"),
        ("sweep-fdelta", NO_SEEDS, 1, "sweep.seeds"),
        ("rate", NO_SEEDS, 1, "sweep.seeds"),
        # J = g1*g3 - g2^2 is 0 for every plan at N = 2, so it cannot rank them
        ("optimize", ["geometry.n_antennas=2"], 2, "n_antennas"),
        ("region", ["geometry.n_antennas=2", "sweep.schemes=OptimizedFDA"], 2, "n_antennas"),
        # every scheme once: no scheme would write no map, a repeated one the same file twice
        ("heatmap", ["sweep.schemes="], 1, "sweep.schemes"),
        ("region", ["sweep.schemes=LPA,LinearFDA,LPA"], 1, "sweep.schemes"),
        ("rate", ["mc.n_samples=0"], 1, "mc.n_samples"),
    ],
    ids=["step-nan", "x-max-inf", "epsilon-nan", "f-delta-nan", "region-f-delta-0",
         "optimize-f-delta-0", "spacing-0", "sigma-w-nan", "sweep-n-no-seeds",
         "sweep-fdelta-no-seeds", "rate-no-seeds", "optimize-n-2", "region-n-2",
         "no-schemes", "repeated-scheme", "no-samples"],
)
def test_bad_grid_budget_and_plan_values_fail_loudly(
    tmp_path, capsys, sub, overrides, code, name
):
    out = str(tmp_path / "out")
    args = [sub, "--out", out] + FAST
    for pair in overrides:
        args += ["--set", pair]
    assert run_cli(args) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 1 else "error:")
    assert name in err
    assert not os.path.exists(out)


def test_two_element_array_maps_without_optimized_fda(tmp_path):
    # only OptimizedFDA refuses N = 2
    out = str(tmp_path / "out")
    args = ["region", "--out", out, "--set", "geometry.n_antennas=2"] + FAST
    assert run_cli(args + ["--set", "sweep.schemes=LPA,LinearFDA,RandomFDA"]) == 0
    assert os.path.exists(os.path.join(out, "region_LPA.csv"))


@pytest.mark.parametrize(
    "sub", ["heatmap", "sweep-n", "sweep-fdelta", "rate", "optimize", "selftest"]
)
def test_plan_outside_region_is_a_config_error(tmp_path, capsys, sub):
    out = str(tmp_path / "out")
    args = [sub, "--out", out, "--plan", str(tmp_path / "missing.json")] + FAST
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "--plan" in err and "'region'" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "text",
    [
        None, "{not json", '{"f_delta_hz": 1e6}', "[1, 2]", '{"offsets_hz": 5}',
        '{"offsets_hz": [0.0, 0.0]}', '{"offsets_hz": "00"}',
        # a seed is written into every CSV header, so it must be an integer
        pytest.param('{"offsets_hz": [%s], "seed": "7\\nx_m,y_m,non_covert\\n0,0,1"}'
                     % ", ".join(["0.0"] * 64), id="seed-with-newlines"),
        pytest.param('{"offsets_hz": [%s], "seed": [1, 2]}' % ", ".join(["0.0"] * 64),
                     id="seed-list"),
        # plan.seed must be non-negative, and so must a plan file's
        pytest.param('{"offsets_hz": [%s], "seed": -1}' % ", ".join(["0.0"] * 64),
                     id="seed-negative"),
        # an offset must be a JSON number, not one that float() would read
        pytest.param('{"offsets_hz": [%s, "0"]}' % ", ".join(["0.0"] * 63),
                     id="offset-string"),
        pytest.param('{"offsets_hz": [%s, true]}' % ", ".join(["0.0"] * 63),
                     id="offset-bool"),
        # a JSON integer too large for a float
        pytest.param('{"offsets_hz": [1%s, %s]}' % ("0" * 400, ", ".join(["0"] * 63)),
                     id="offset-too-large"),
    ],
)
def test_unreadable_or_malformed_plan_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "plan.json"
    if text is not None:
        path.write_text(text)
    out = str(tmp_path / "out")
    assert run_cli(["region", "--out", out, "--plan", str(path)] + FAST) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"plan file {path}" in err
    assert not os.path.exists(out) or not os.listdir(out)


def test_empty_plan_path_is_a_config_error(tmp_path, capsys):
    # an empty --plan names no file; it must not fall back to the default schemes
    out = str(tmp_path / "out")
    assert run_cli(["region", "--out", out, "--plan", ""] + FAST) == 1
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("offset", ["NaN", "Infinity"])
def test_non_finite_plan_offset_is_a_config_error(tmp_path, capsys, offset):
    # json reads NaN and Infinity; a plan with them must not reach the map
    path = tmp_path / "plan.json"
    path.write_text('{"offsets_hz": [%s%s]}' % ("0.0, " * 63, offset))
    out = str(tmp_path / "out")
    assert run_cli(["region", "--out", out, "--plan", str(path)] + FAST) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"plan file {path}" in err
    assert "finite" in err
    assert not os.path.exists(out)


def test_region_plan_file_names_outputs_by_its_scheme(tmp_path):
    sets = FAST + ["--set", "sweep.schemes=RandomFDA", "--set", "plan.seed=3"]
    plan = cli._plan_for(load_config(None, sets[1::2]), "RandomFDA")
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"offsets_hz": list(plan.offsets_hz), "scheme": "RandomFDA",
                                "seed": 3}))
    from_file, from_config = str(tmp_path / "file"), str(tmp_path / "config")
    assert run_cli(["region", "--out", from_file, "--plan", str(path)] + sets) == 0
    assert run_cli(["region", "--out", from_config] + sets) == 0
    names = sorted(os.listdir(from_file))
    assert names == ["region_RandomFDA.csv", "region_summary.csv"]
    for name in names:
        assert read_bytes(os.path.join(from_file, name)) == read_bytes(
            os.path.join(from_config, name)
        )


# ------------------------------------------------ grid rows written in blocks

FLOAT_SPECIALS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e16, -1e16, 1.0, 10.0, 1e22, 2.0**70,
]
row_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(FLOAT_SPECIALS),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),  # subnormals
    st.integers(min_value=-(10**300), max_value=10**300).map(float),
    st.integers(min_value=10**15, max_value=10**20).map(float),  # repr turns to 1e+16
    st.integers(min_value=-1000, max_value=1000).map(float),
)


def per_cell_text(xs, y, row):
    return "".join(",".join(fmt(v) for v in (x, y, value)) + "\n" for x, value in zip(xs, row))


def block_of(draw, xs, ys, cells):
    """A (len(ys), len(xs)) block of cells drawn from the strategy cells."""
    size = len(xs) * len(ys)
    values = draw(st.lists(cells, min_size=size, max_size=size))
    return np.array(values).reshape(len(ys), len(xs))


@settings(max_examples=300, deadline=None)
@given(
    xs=st.lists(row_floats, max_size=40),
    ys=st.lists(row_floats, min_size=1, max_size=4),
    data=st.data(),
)
def test_grid_row_text_matches_fmt_per_cell(xs, ys, data):
    block = block_of(data.draw, xs, ys, row_floats).astype(np.float64)
    text = grid_text([fmt(x) for x in xs], [fmt(y) for y in ys], block)
    assert text == "".join(per_cell_text(xs, y, row) for y, row in zip(ys, block))


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(row_floats, max_size=40),
    ys=st.lists(row_floats, min_size=1, max_size=4),
    data=st.data(),
)
def test_grid_row_text_matches_fmt_for_masks(xs, ys, data):
    block = block_of(data.draw, xs, ys, st.booleans()).astype(bool)
    text = grid_text([fmt(x) for x in xs], [fmt(y) for y in ys], block)
    assert text == "".join(per_cell_text(xs, y, row) for y, row in zip(ys, block))


def kernel_cases():
    """Floats at the edges of grid_text's digit and layout rules, and 1 M random positive ones."""
    powers = [math.ldexp(1.0, e) for e in range(-1022, 1024)]
    tens = [float(f"1e{k}") for k in range(-307, 309)]
    near = [2.0 ** 53 + i for i in range(-64, 65)]
    # positional up to 1e16 and from 1e-4, exponent form beyond
    near += [1e-4, 1e16, 9.999999999999999e-05, 9999999999999998.0, 1e15, 123456789012345.6]
    edges = np.array(powers + tens + near)
    neighbours = [np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)]
    rng = np.random.default_rng(20240917)
    bits = rng.integers(0, 1 << 63, 1_000_000, dtype=np.uint64)  # sign bit clear
    specials = np.array(FLOAT_SPECIALS + [2.2250738585072014e-308, 1.7976931348623157e308])
    return np.concatenate(neighbours + [bits.view(np.float64), specials])


def test_grid_text_matches_fmt_at_the_edges_and_on_random_bits():
    values = kernel_cases()
    width = 1000
    values = np.concatenate([values, np.ones(-values.size % width)])
    column = values.reshape(-1, width)
    text = "".join(grid_blocks([""] * width, [""] * column.shape[0], column))
    assert text == "".join([f",,{fmt(v)}\n" for v in values.tolist()])


@pytest.mark.parametrize("sub", ["heatmap", "region"])
def test_grid_csvs_equal_per_cell_reference(tmp_path, monkeypatch, sub):
    # (scheme, grid, printed array) of every map the subcommand evaluated:
    # heatmap's float64 values, region's certified masks, each of which
    # must equal the float64 value path's mask
    maps = []
    if sub == "heatmap":
        stream = cli.value_bands

        def recording(g, plan, bob, spec):
            maps.append((plan.scheme, spec, evaluate_grid(g, plan, bob, spec).values))
            return stream(g, plan, bob, spec)

        monkeypatch.setattr(cli, "value_bands", recording)
    else:
        certify = cli.noncovert_region

        def recording(g, plan, bob, spec, mode, value):
            region = certify(g, plan, bob, spec, mode, value)
            exact = fieldmap.extract_noncovert(evaluate_grid(g, plan, bob, spec), mode, value)
            np.testing.assert_array_equal(region.mask, exact.mask)
            maps.append((plan.scheme, spec, region.mask))
            return region

        monkeypatch.setattr(cli, "noncovert_region", recording)
    out = str(tmp_path / "out")
    assert run_cli([sub, "--out", out] + FAST) == 0
    assert len(maps) == 4
    column = "normalized_power" if sub == "heatmap" else "non_covert"
    for scheme, spec, data in maps:
        xs, ys = spec.xs(), spec.ys()
        body = "".join(
            ",".join(fmt(v) for v in (xs[ix], ys[iy], data[iy, ix])) + "\n"
            for iy in range(spec.n_y)
            for ix in range(spec.n_x)
        )
        text = read_bytes(os.path.join(out, f"{sub}_{scheme}.csv")).decode()
        head, sep, rest = text.partition(f"\nx_m,y_m,{column}\n")
        assert sep and all(line.startswith("# ") for line in head.split("\n"))
        assert rest == body
    if sub == "heatmap":
        assert "nan" in body  # the origin node
        assert ",1\n" in body  # the focus cell, normalized to exactly 1


def test_region_bytes_do_not_depend_on_fdacovert_threads(tmp_path, monkeypatch):
    # the row blocks are disjoint, so the thread count shows in no byte.
    # Bands of 8 of FAST's 49 rows: seven per map
    monkeypatch.setattr(fieldmap, "_CHUNK", 49 * 8)
    outputs = {}
    for env in ("1", "3"):
        monkeypatch.setenv("FDACOVERT_THREADS", env)
        out = tmp_path / env
        assert run_cli(["region", "--out", str(out)] + FAST) == 0
        outputs[env] = {name: read_bytes(out / name) for name in sorted(os.listdir(out))}
    assert len(outputs["1"]) == 5  # four masks and the summary
    assert outputs["1"] == outputs["3"]


def test_heatmap_bytes_do_not_depend_on_fdacovert_threads(tmp_path, monkeypatch):
    # seven bands per map, on workers at three threads; a non-integer value
    # is ignored with a warning, and a value below 1 means one worker
    monkeypatch.setattr(fieldmap, "_CHUNK", 49 * 8)
    outputs = {}
    for env in ("1", "3", "two", "0", "-2"):
        monkeypatch.setenv("FDACOVERT_THREADS", env)
        out = tmp_path / env
        args = ["heatmap", "--out", str(out)] + FAST
        if env == "two":
            with pytest.warns(UserWarning, match="ignoring non-integer"):
                assert run_cli(args) == 0
        else:
            assert run_cli(args) == 0
        outputs[env] = {name: read_bytes(out / name) for name in sorted(os.listdir(out))}
    assert len(outputs["1"]) == 4  # one map per scheme
    assert outputs["1"] == outputs["3"] == outputs["two"]
    assert outputs["1"] == outputs["0"] == outputs["-2"]


def test_region_and_rate_start_no_worker_at_any_thread_count(tmp_path, monkeypatch, capsys):
    # every mask runs in the process that asks for it: with bands of 8 of
    # FAST's 49 rows, seven per map, a pool started at three threads raises
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(fieldmap, "_CHUNK", 49 * 8)
    outputs = {}
    for env in ("1", "3"):
        monkeypatch.setenv("FDACOVERT_THREADS", env)
        out = tmp_path / env
        for sub in ("region", "rate"):
            assert run_cli([sub, "--out", str(out)] + FAST) == 0, capsys.readouterr().err
        outputs[env] = {name: read_bytes(out / name) for name in sorted(os.listdir(out))}
    assert len(outputs["1"]) == 6  # four masks, the summary and the rates
    assert outputs["1"] == outputs["3"]
    assert not multiprocessing.active_children()
    # heatmap's value maps still go to workers at three threads, and meet the spy
    assert run_cli(["heatmap", "--out", str(tmp_path / "heatmap")] + FAST) == 2
    assert "a worker pool was started" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["fraction", "kl"])
def test_sweep_bytes_do_not_depend_on_fdacovert_threads(tmp_path, monkeypatch, mode):
    # one thread runs every job in this process, three run them on three
    # worker processes
    outputs = {}
    for env in ("1", "3"):
        monkeypatch.setenv("FDACOVERT_THREADS", env)
        out = tmp_path / env
        for sub in ("sweep-n", "sweep-fdelta"):
            args = [sub, "--out", str(out), "--set", f"threshold.mode={mode}"] + FAST
            assert run_cli(args) == 0
        outputs[env] = {name: read_bytes(out / name) for name in sorted(os.listdir(out))}
    assert sorted(outputs["1"]) == ["sweep_fdelta.csv", "sweep_n.csv"]
    assert b"OptimizedFDA" in outputs["1"]["sweep_n.csv"]
    assert outputs["1"] == outputs["3"]


def test_heatmap_holds_one_map_at_a_time(tmp_path, monkeypatch):
    # heatmap writes each row band's text as the band is evaluated, so it
    # never holds a whole map: at one thread, 601 x 601 cells (a 2.9 MB
    # float64 map) in bands of 6 rows peak at ~1.6 MB, the text and the
    # kernel's workspace of one band, whatever the number of schemes
    monkeypatch.setenv("FDACOVERT_THREADS", "1")
    monkeypatch.setattr(fieldmap, "_CHUNK", 4096)
    args = ["--set", "grid.x_max_m=24", "--set", "grid.y_max_m=24", "--set", "grid.step_m=0.04",
            "--set", "geometry.n_antennas=16", "--set", "sweep.schemes=LPA,LinearFDA"]
    tracemalloc.start()
    try:
        assert run_cli(["heatmap", "--out", str(tmp_path / "out")] + args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(os.listdir(tmp_path / "out")) == 2
    assert peak < 601 * 601 * 8


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_get_the_mode_open_gives_under_the_umask(tmp_path, umask, mode):
    out = tmp_path / "out"
    previous = os.umask(umask)
    try:
        assert run_cli(["region", "--out", str(out)] + FAST) == 0
    finally:
        os.umask(previous)
    modes = {name: stat.S_IMODE(os.stat(out / name).st_mode) for name in os.listdir(out)}
    assert len(modes) == 5  # four masks and the summary
    assert set(modes.values()) == {mode}


def test_outputs_are_written_without_touching_the_umask(tmp_path, monkeypatch):
    # setting the umask is process-wide, so a file another thread creates
    # while it is changed would get the wrong mode; the kernel applies it
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    out = tmp_path / "out"
    assert run_cli(["region", "--out", str(out)] + FAST) == 0
    assert sorted(os.listdir(out)) == [
        "region_LPA.csv", "region_LinearFDA.csv", "region_OptimizedFDA.csv",
        "region_RandomFDA.csv", "region_summary.csv",
    ]


# SHA-256 of every file heatmap, region and sweep-fdelta write on the FAST
# grid, with the schemes whose outputs rest on numpy's float64 arithmetic
# and the value path's own sin/cos alone.  OptimizedFDA is left out: its
# region search scores plans through that sin/cos too, but its plan moves
# whenever the search changes.  A change that moves one of them changes the
# program's outputs and must say so.
GOLDEN_SHA256 = {
    "fraction": {
        "heatmap_LPA.csv": "55eeab9e52f9041f7f933f6f6f1fc1d609ad4489c3fc35dc3bebb105b7512350",
        "heatmap_LinearFDA.csv": "76753bd1c7baeeb477388e528c0e4754e063a99bd149d2e02e503d23c274280d",
        "heatmap_RandomFDA.csv": "5796576fc1e593f7bfbea3bffb07c9bc68e53cf9011377b0fc98a11f4525ccf3",
        "region_LPA.csv": "946af7c96f6f6ecd704c12452ce6fd4a448596f9a80d76fd953c2b002f81a144",
        "region_LinearFDA.csv": "48834aac788b15776972627031585605bb578e62c422a6a26cc3023770b9e755",
        "region_RandomFDA.csv": "61a9f91719b5d63a0cad74ea6d9c7db89161bdb6f75678ec5f8b4de339c67b83",
        "region_summary.csv": "d8a3554fd0bc0b9f4c854d33be59aea94eb16c977dcc152e0ecfc965c0f870e4",
        "sweep_fdelta.csv": "e82bf65175159af5d78e9dbe8dccb125ea1106a0554481307344b15304702612",
    },
    "kl": {
        "heatmap_LPA.csv": "a8f93062177155168924faca3dd23af8993d7f22a3f67473194576f18c14d533",
        "heatmap_LinearFDA.csv": "702d316c5a596fbbdb9b628b802275e792b208ba409dae564f2fd24a7f69464a",
        "heatmap_RandomFDA.csv": "1425b091418053c1387ea8ab131e577367eb019d9c69904acbebe4e5f8cf3cfa",
        "region_LPA.csv": "3254d1261aff41015f340eb6373f25f9a8e21ae840d05d48e40dc64bdb1151aa",
        "region_LinearFDA.csv": "b7714938989da7f66456ac433f173fd24f5e0aacf6c6c549ee9f36ac298e7752",
        "region_RandomFDA.csv": "ed7c512bc32baf8c254948c607bd666d24a13586257633d52722290b52708774",
        "region_summary.csv": "25f17d2904ed6f7d496fa6f6ac3877d4687be2c51d678c4e2b2d75e0d0e5287e",
        "sweep_fdelta.csv": "759f599f3a92412af8a55aa85fac3f99b37af333dcb7973913284b7a419d11d2",
    },
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_SHA256))
def test_region_and_sweep_outputs_keep_their_golden_bytes(tmp_path, mode):
    out = tmp_path / "out"
    args = FAST + [
        "--set", "sweep.schemes=LPA,LinearFDA,RandomFDA", "--set", f"threshold.mode={mode}"
    ]
    for sub in ("heatmap", "region", "sweep-fdelta"):
        assert run_cli([sub, "--out", str(out)] + args) == 0
    digests = {
        name: hashlib.sha256(read_bytes(out / name)).hexdigest()
        for name in sorted(os.listdir(out))
    }
    assert digests == GOLDEN_SHA256[mode]


# SHA-256 of sweep_n.csv and rate.csv on the FAST grid, with the schemes and
# settings of GOLDEN_SHA256
GOLDEN_SWEEP_N_AND_RATE_SHA256 = {
    "fraction": {
        "rate.csv": "e74d3a10cd1ede83a442b459bb9dc7dd816d58b55e027b69d2023b651761f93d",
        "sweep_n.csv": "68e6e139d1f1b51f4667556304126c3daa3d3b3e21650f3cb9fbc22d9808716a",
    },
    "kl": {
        "rate.csv": "f9bce1bfaabba5f0bdaa707e2bc14ac926b07496db3eeb8c749b47562ecbd456",
        "sweep_n.csv": "d0f3a9e78ab3336dd91909280d99de4f9bb8047394240b04828a6d9bb486d1e4",
    },
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_SWEEP_N_AND_RATE_SHA256))
def test_sweep_n_and_rate_outputs_keep_their_golden_bytes(tmp_path, mode):
    out = tmp_path / "out"
    args = FAST + [
        "--set", "sweep.schemes=LPA,LinearFDA,RandomFDA", "--set", f"threshold.mode={mode}"
    ]
    for sub in ("sweep-n", "rate"):
        assert run_cli([sub, "--out", str(out)] + args) == 0
    digests = {
        name: hashlib.sha256(read_bytes(out / name)).hexdigest()
        for name in sorted(os.listdir(out))
    }
    assert digests == GOLDEN_SWEEP_N_AND_RATE_SHA256[mode]


# ------------------------------------------------------- runtime error paths

OFF_GRID = [
    "--set", "grid.x_max_m=3",
    "--set", "grid.y_max_m=3",
    "--set", "grid.step_m=0.25",
    "--set", "sweep.schemes=LPA",
]


def test_fraction_region_with_focus_off_grid_exits_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    with pytest.warns(UserWarning, match="outside the grid"):
        assert run_cli(["region", "--out", out] + OFF_GRID) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "focus" in err
    assert not os.path.exists(out) or not os.listdir(out)
    # the kl threshold uses the raw correlation and needs no normalizer
    args = ["region", "--out", out, "--set", "threshold.mode=kl"] + OFF_GRID
    with pytest.warns(UserWarning, match="outside the grid"):
        assert run_cli(args) == 0
    assert os.path.exists(os.path.join(out, "region_LPA.csv"))


def test_sweep_with_focus_off_grid_reports_from_worker_processes(tmp_path, capsys, monkeypatch):
    # each of the three N values' masks runs in its own worker; its error and
    # its warning reach this process as if the sweep had run here
    monkeypatch.setenv("FDACOVERT_THREADS", "3")
    out = str(tmp_path / "out")
    with pytest.warns(UserWarning, match="outside the grid"):
        assert run_cli(["sweep-n", "--out", out] + OFF_GRID) == 2
    assert not multiprocessing.active_children()  # every worker is joined
    err = capsys.readouterr().err
    assert "error:" in err and "focus" in err
    assert not os.path.exists(out) or not os.listdir(out)
    args = ["sweep-n", "--out", out, "--set", "threshold.mode=kl"] + OFF_GRID
    with pytest.warns(UserWarning, match="outside the grid"):
        assert run_cli(args) == 0
    assert os.listdir(out) == ["sweep_n.csv"]


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize(
    ("sub", "values", "message"),
    [
        ("sweep-fdelta", "sweep.f_delta_values_hz=0,-1e6",
         "f_delta_hz must be finite and > 0, got 0.0"),
        ("sweep-n", "sweep.n_values=2,16", "n_antennas must be >= 3"),
    ],
)
def test_sweep_reports_the_first_error_in_row_order(
    tmp_path, capsys, monkeypatch, threads, sub, values, message
):
    # the first row's OptimizedFDA search fails (in a worker process at three
    # threads); the second row's errors, such as LinearFDA's at a negative
    # increment, come later in row order and are never reported in its place
    monkeypatch.setenv("FDACOVERT_THREADS", threads)
    out = tmp_path / "out"
    assert run_cli([sub, "--out", str(out)] + FAST + ["--set", values]) == 2
    err = capsys.readouterr().err
    assert message in err and ">= 0," not in err
    assert not out.exists() or not os.listdir(out)


def test_heatmap_with_focus_off_grid_exits_2(tmp_path, capsys, monkeypatch):
    # heatmap refuses the map before it evaluates any band of it
    kernel, calls = fieldmap._correlation_block, []

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(fieldmap, "_correlation_block", counting)
    out = str(tmp_path / "out")
    with pytest.warns(UserWarning) as caught:
        assert run_cli(["heatmap", "--out", out] + OFF_GRID) == 2
    assert [str(w.message) for w in caught] == [
        "focus point lies outside the grid; peak normalization skipped"
    ]
    assert not calls
    err = capsys.readouterr().err
    assert "error:" in err and "focus" in err
    assert not os.path.exists(out) or not os.listdir(out)


# ----------------------------------------------------- runtime dependencies

def test_cli_runs_without_scipy(tmp_path):
    # pytest itself imports scipy as the inverse_q oracle, so the check runs
    # in a fresh interpreter that sees only this package and the site packages
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = textwrap.dedent(
        f"""
        import sys
        from fdacovert.cli import main
        for sub in ("optimize", "rate", "selftest"):
            assert main([sub, "--out", {str(tmp_path)!r}] + {FAST!r}) == 0, sub
        loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        assert not loaded, loaded
        """
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a sweep that starts worker processes imports multiprocessing
    # (~15 ms), so the other subcommands' start-up does not pay for it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = textwrap.dedent(
        """
        import sys
        import fdacovert.cli
        loaded = [m for m in sys.modules if m == "concurrent.futures.process"
                  or m == "multiprocessing" or m.startswith("multiprocessing.")]
        assert not loaded, loaded
        """
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_perfbench_finds_every_binding_it_wraps():
    # the traced benchmark replaces functions at the module attributes the
    # program looks them up by; a binding that is gone fails it at start-up
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = "import spans; spans.instrument(spans.Tracer())"
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=os.path.join(root, "perfbench"), env=env,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_failing_selftest_exits_3_and_removes_the_out_directory_it_made(
    tmp_path, capsys, monkeypatch
):
    def boom():
        raise RuntimeError("broken invariant")

    checks = [("ok", lambda: True), ("bad", lambda: False), ("boom", boom)]
    monkeypatch.setattr(cli, "_selftest_checks", lambda cfg: checks)
    out = tmp_path / "made" / "out"
    assert run_cli(["selftest", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["PASS ok", "FAIL bad", "FAIL boom: broken invariant"]
    assert "selftest failure: 2 selftest check(s) failed" in captured.err
    assert not (tmp_path / "made").exists()


def test_failed_run_removes_the_out_directory_it_made(tmp_path):
    bad = tmp_path / "plan.json"
    bad.write_text("{not json")
    out = tmp_path / "made" / "out"
    assert run_cli(["region", "--out", str(out), "--plan", str(bad)] + FAST) == 1
    assert not (tmp_path / "made").exists()
    with pytest.warns(UserWarning, match="outside the grid"):
        assert run_cli(["heatmap", "--out", str(out)] + OFF_GRID) == 2
    assert not (tmp_path / "made").exists()
    # a directory that existed before the run stays, even if empty
    existing = tmp_path / "existing"
    existing.mkdir()
    assert run_cli(["region", "--out", str(existing), "--plan", str(bad)] + FAST) == 1
    with pytest.warns(UserWarning, match="outside the grid"):
        assert run_cli(["heatmap", "--out", str(existing / "sub")] + OFF_GRID) == 2
    assert existing.is_dir() and not os.listdir(existing)
    # a successful run keeps the directory it made, even with no file in it
    assert run_cli(["selftest", "--out", str(out)]) == 0
    assert out.is_dir()
