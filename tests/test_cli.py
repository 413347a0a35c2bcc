"""CLI: config parsing, CSV emission, subcommands, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdacovert import ArrayGeometry, GridSpec, PolarPoint, evaluate_grid, lpa_plan
from fdacovert import cli, fieldmap
from fdacovert.cli import _grid_row_text, emit_csv, fmt, main, read_field_csv
from fdacovert.config import ConfigError, build_config, load_config

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
    with pytest.raises(ConfigError, match="scheme"):
        build_config(overrides=["plan.scheme=Bogus"])
    with pytest.raises(ConfigError, match="mode"):
        build_config(overrides=["threshold.mode=absolute"])
    with pytest.raises(ConfigError, match="fraction"):
        build_config(overrides=["threshold.value=1.5"])
    with pytest.raises(ConfigError):
        build_config(overrides=["bob.theta_deg=90"])
    with pytest.raises(ConfigError):
        build_config(overrides=["budget.blocklength=0"])


def test_config_hash_tracks_effective_values():
    a = build_config()
    b = build_config(overrides=["plan.seed=1"])
    assert a.sha256() != b.sha256()
    assert a.sha256() == build_config().sha256()


def test_cli_exit_codes(tmp_path, capsys):
    assert run_cli(["selftest"]) == 0
    assert run_cli(["region", "--set", "plan.scheme=Nope"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
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
    out = str(tmp_path / "out")
    assert run_cli(["optimize", "--out", out] + FAST) == 0
    plan_path = os.path.join(out, "optimize.json")
    with open(plan_path) as fh:
        payload = json.load(fh)
    assert len(payload["offsets_hz"]) == 64
    assert max(abs(v) for v in payload["offsets_hz"]) <= payload["box_half_width_hz"]
    assert payload["converged"]

    assert run_cli(["region", "--out", out, "--plan", plan_path] + FAST) == 0
    summary = read_bytes(os.path.join(out, "region_summary.csv")).decode().splitlines()
    rows = [l.split(",") for l in summary if not l.startswith("#")][1:]
    assert rows[0][0] == "OptimizedFDA"
    assert float(rows[0][3]) >= 0.0


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
    ],
    ids=["step-nan", "x-max-inf", "epsilon-nan", "f-delta-nan", "region-f-delta-0",
         "optimize-f-delta-0"],
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
    "text", [None, "{not json", '{"f_delta_hz": 1e6}', "[1, 2]", '{"offsets_hz": 5}']
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


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(st.tuples(row_floats, row_floats), min_size=0, max_size=40),
    y=row_floats,
)
def test_grid_row_text_matches_fmt_per_cell(data, y):
    xs = [x for x, _ in data]
    row = np.array([v for _, v in data], dtype=np.float64)
    text = _grid_row_text([fmt(x) for x in xs], fmt(y), row)
    assert text == per_cell_text(xs, y, row)


@settings(max_examples=100, deadline=None)
@given(data=st.lists(st.tuples(row_floats, st.booleans()), max_size=40), y=row_floats)
def test_grid_row_text_matches_fmt_for_masks(data, y):
    xs = [x for x, _ in data]
    row = np.array([m for _, m in data], dtype=bool)
    text = _grid_row_text([fmt(x) for x in xs], fmt(y), row)
    assert text == per_cell_text(xs, y, row)


@pytest.mark.parametrize("sub", ["heatmap", "region"])
def test_grid_csvs_equal_per_cell_reference(tmp_path, monkeypatch, sub):
    # (scheme, grid, printed array) of every map the subcommand evaluated:
    # heatmap's float64 values, region's certified masks, each of which
    # must equal the float64 value path's mask
    maps = []
    if sub == "heatmap":
        evaluate = cli.evaluate_grid

        def recording(*args, **kwargs):
            fmap = evaluate(*args, **kwargs)
            maps.append((fmap.metadata["scheme"], fmap.spec, fmap.values))
            return fmap

        monkeypatch.setattr(cli, "evaluate_grid", recording)
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
    # the row blocks are disjoint, so the thread count shows in no byte; a
    # non-integer value is ignored with a warning
    outputs = {}
    for env in ("1", "3", "two"):
        monkeypatch.setenv("FDACOVERT_THREADS", env)
        out = tmp_path / env
        args = ["region", "--out", str(out)] + FAST
        if env == "two":
            with pytest.warns(UserWarning, match="ignoring non-integer"):
                assert run_cli(args) == 0
        else:
            assert run_cli(args) == 0
        outputs[env] = {name: read_bytes(out / name) for name in sorted(os.listdir(out))}
    assert len(outputs["1"]) == 5  # four masks and the summary
    assert outputs["1"] == outputs["3"] == outputs["two"]


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


def test_heatmap_with_focus_off_grid_exits_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    with pytest.warns(UserWarning, match="outside the grid"):
        assert run_cli(["heatmap", "--out", out] + OFF_GRID) == 2
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
