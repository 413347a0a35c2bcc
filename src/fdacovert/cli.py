"""Command-line experiment runner with bit-exact, reproducible outputs.

Subcommands: heatmap, region, sweep-n, sweep-fdelta, rate, optimize, selftest.
Every output file embeds a metadata header (config hash, seeds, version) and
is written via a temp file + rename, and a failed run removes the output
directory if it made it and it is still empty, so it leaves nothing behind.
Exit codes: 0 success, 1 config error, 2 runtime error, 3 selftest failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import __version__
from .channel import (
    SCHEME_OPTIMIZED,
    SCHEME_RANDOM,
    FrequencyPlan,
    channel_vector,
    mrt_weights,
    snr_bob,
)
from .config import ConfigError, ExperimentConfig, load_config
from .covertness import xi, xi_inv
from .ellipse import objective_and_gradient, optimize_offsets
from .fieldmap import (
    GridSpec,
    evaluate_grid,
    extract_noncovert,
    float32_error,
    monte_carlo_rate,
    noncovert_region,
    sweep,
)
from .geometry import DomainError
from .schemes import (
    RegionSpec,
    box_half_width,
    build_plan,
    linear_fda_plan,
    random_fda_plan,
    refine_for_region,
)

SUBCOMMANDS = (
    "heatmap",
    "region",
    "sweep-n",
    "sweep-fdelta",
    "rate",
    "optimize",
    "selftest",
)


def fmt(value) -> str:
    """Shortest text that parses back to exactly the same value."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        s = repr(v)
        return s[:-2] if s.endswith(".0") else s
    return str(value)


@contextmanager
def _atomic_text_file(path: str):
    """Text file handle whose content appears at path only if the block succeeds."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_csv(path: str, header: Sequence[str], rows: Iterable[Sequence], metadata: dict) -> None:
    """Write a CSV with '# key=value' metadata lines, atomically.

    A row is a sequence of values, formatted with fmt, or a str of whole,
    already formatted lines, written as it is.
    """
    with _atomic_text_file(path) as fh:
        for key in sorted(metadata):
            fh.write(f"# {key}={metadata[key]}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row if isinstance(row, str) else ",".join(fmt(v) for v in row) + "\n")


def read_field_csv(path: str):
    """Parse a field CSV back into (metadata, x, y, value) arrays."""
    meta = {}
    xs, ys, vs = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = None
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
                continue
            if header is None:
                header = line.split(",")
                continue
            x, y, v = line.split(",")
            xs.append(float(x))
            ys.append(float(y))
            vs.append(float(v))
    return meta, np.array(xs), np.array(ys), np.array(vs)


def _base_metadata(cfg: ExperimentConfig, subcommand: str) -> dict:
    meta = {
        "generator": f"fdacovert {__version__}",
        "subcommand": subcommand,
        "config_sha256": cfg.sha256(),
    }
    # the resolved configuration rides along so any output is reproducible
    # from its own header
    for line in cfg.describe():
        key, _, value = line.partition("=")
        meta[f"cfg.{key}"] = value
    return meta


def _grid_row_text(x_text: Sequence[str], y_text: str, row: np.ndarray) -> str:
    """Lines 'x,y,value' of one grid row, each value exactly as fmt writes it.

    The row is formatted in one repr of its list, which joins the repr of
    each value with ', '.  With one more ', ' appended, every value ends at
    a separator, so '.0, ' marks exactly the trailing '.0' fmt strips from
    a float; zip drops the empty piece after the last separator.  A bool
    row is read as the integers 0/1, which is how fmt writes a bool.
    """
    if row.dtype == np.bool_:
        row = row.view(np.uint8)
    values = (repr(row.tolist())[1:-1] + ", ").replace(".0, ", ", ").split(", ")
    return "".join([f"{x},{y_text},{v}\n" for x, v in zip(x_text, values)])


def _grid_rows(spec: GridSpec, column: np.ndarray):
    """One text block per grid row of column: 'x,y,value' lines, y-outer row-major."""
    x_text = [fmt(x) for x in spec.xs()]
    for y, row in zip(spec.ys(), column):
        yield _grid_row_text(x_text, fmt(y), row)


def _region(cfg: ExperimentConfig) -> RegionSpec:
    """The run's grid and threshold, for which an OptimizedFDA plan is built."""
    return RegionSpec(cfg.grid(), *cfg.effective_threshold())


def _plan_for(cfg: ExperimentConfig, scheme: str, seed=None) -> FrequencyPlan:
    return build_plan(
        scheme,
        cfg.geometry(),
        cfg.bob(),
        cfg.f_delta_hz,
        seed=cfg.seed if seed is None else seed,
        box_half_width_hz=cfg.box_half_width_hz,
        region=_region(cfg) if scheme == SCHEME_OPTIMIZED else None,
    )


def _load_plan_file(path: str) -> FrequencyPlan:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return FrequencyPlan(
            offsets_hz=tuple(data["offsets_hz"]),
            base_increment_hz=data["f_delta_hz"],
            scheme=data.get("scheme", SCHEME_OPTIMIZED),
            seed=data.get("seed"),
        )
    except KeyError as exc:
        raise ConfigError(f"plan file {path} has no key {exc}") from exc
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"cannot read plan file {path}: {exc}") from exc


def cmd_heatmap(cfg: ExperimentConfig, out_dir: str) -> List[str]:
    written = []
    for scheme in cfg.sweep_schemes:
        plan = _plan_for(cfg, scheme)
        fmap = evaluate_grid(cfg.geometry(), plan, cfg.bob(), cfg.grid())
        if fmap.metadata["bob_cell"] is None:
            raise DomainError(
                "heatmap values are normalized to the focus cell, and the focus "
                "lies outside the grid; use a grid that contains the focus"
            )
        meta = _base_metadata(cfg, "heatmap")
        meta.update(scheme=scheme, seed=fmt(plan.seed), step_m=fmt(cfg.step_m))
        path = os.path.join(out_dir, f"heatmap_{scheme}.csv")
        rows = _grid_rows(fmap.spec, fmap.values)
        emit_csv(path, ["x_m", "y_m", "normalized_power"], rows, meta)
        written.append(path)
    return written


def cmd_region(cfg: ExperimentConfig, out_dir: str, plan_file: Optional[str]) -> List[str]:
    mode, value = cfg.effective_threshold()
    written = []
    summary = []
    if plan_file:
        plans = [(SCHEME_OPTIMIZED, _load_plan_file(plan_file))]
    else:
        plans = [(s, _plan_for(cfg, s)) for s in cfg.sweep_schemes]
    grid = cfg.grid()
    for scheme, plan in plans:
        region = noncovert_region(cfg.geometry(), plan, cfg.bob(), grid, mode, value)
        meta = _base_metadata(cfg, "region")
        meta.update(
            scheme=scheme,
            seed=fmt(plan.seed),
            threshold_mode=mode,
            threshold_value=fmt(value),
        )
        path = os.path.join(out_dir, f"region_{scheme}.csv")
        emit_csv(path, ["x_m", "y_m", "non_covert"], _grid_rows(grid, region.mask), meta)
        written.append(path)
        summary.append(
            (scheme, region.n_noncovert, region.area_m2, region.area_fraction)
        )
    meta = _base_metadata(cfg, "region")
    meta.update(threshold_mode=mode, threshold_value=fmt(value))
    path = os.path.join(out_dir, "region_summary.csv")
    emit_csv(
        path,
        ["scheme", "n_noncovert", "area_m2", "area_fraction"],
        summary,
        meta,
    )
    written.append(path)
    return written


def _cmd_sweep(cfg: ExperimentConfig, out_dir: str, parameter: str) -> List[str]:
    mode, value = cfg.effective_threshold()
    values = cfg.sweep_n_values if parameter == "n_antennas" else cfg.sweep_f_delta_values_hz
    rows = sweep(
        parameter,
        values,
        cfg.sweep_schemes,
        cfg.geometry(),
        cfg.bob(),
        cfg.f_delta_hz,
        cfg.grid(),
        seeds=cfg.sweep_seeds,
        threshold_mode=mode,
        threshold_value=value,
        seed=cfg.seed,
        box_half_width_hz=cfg.box_half_width_hz,
    )
    meta = _base_metadata(cfg, f"sweep-{parameter}")
    meta.update(
        threshold_mode=mode,
        threshold_value=fmt(value),
        seeds=";".join(str(s) for s in cfg.sweep_seeds),
    )
    name = "sweep_n.csv" if parameter == "n_antennas" else "sweep_fdelta.csv"
    path = os.path.join(out_dir, name)
    emit_csv(
        path,
        [
            "scheme",
            parameter,
            "mean_area_fraction",
            "std_area_fraction",
            "mean_area_m2",
            "n_seeds",
        ],
        [
            (r.scheme, r.value, r.mean_area_fraction, r.std_area_fraction,
             r.mean_area_m2, r.n_seeds)
            for r in rows
        ],
        meta,
    )
    return [path]


def cmd_rate(cfg: ExperimentConfig, out_dir: str) -> List[str]:
    mode, value = cfg.effective_threshold()
    rows = []
    for scheme in cfg.sweep_schemes:
        seeds = cfg.sweep_seeds if scheme == SCHEME_RANDOM else (cfg.seed,)
        for seed in seeds:
            plan = _plan_for(cfg, scheme, seed=seed)
            result = monte_carlo_rate(
                cfg.geometry(),
                plan,
                cfg.bob(),
                cfg.link_budget(),
                cfg.grid(),
                cfg.mc_n_samples,
                cfg.mc_seed,
                threshold_mode=mode,
                threshold_value=value,
            )
            rows.append(
                (scheme, seed, result.mean_rate, result.std_error,
                 result.point_rate, result.area_fraction, result.n_samples)
            )
    meta = _base_metadata(cfg, "rate")
    meta.update(mc_seed=fmt(cfg.mc_seed), threshold_mode=mode, threshold_value=fmt(value))
    path = os.path.join(out_dir, "rate.csv")
    emit_csv(
        path,
        ["scheme", "plan_seed", "mean_rate", "std_error", "point_rate",
         "area_fraction", "n_samples"],
        rows,
        meta,
    )
    return [path]


def cmd_optimize(cfg: ExperimentConfig, out_dir: str) -> List[str]:
    """optimize.json: the OptimizedFDA plan that the other subcommands build.

    J's optimum is the starting point, and the run's grid and threshold
    choose the plan (schemes.refine_for_region).  objective is J of the
    written offsets; start_index and iterations describe the J search (the
    winning start and its step's trial count).  box_half_width refuses an
    f_delta_hz that is not finite and > 0, as the plan route does.
    """
    g = cfg.geometry()
    bob = cfg.bob()
    box = box_half_width(cfg.f_delta_hz, cfg.box_half_width_hz)
    result = optimize_offsets(g, bob, box, seed=cfg.seed)
    offsets = refine_for_region(g, bob, box, result.offsets_hz, _region(cfg))
    payload = {
        "generator": f"fdacovert {__version__}",
        "config_sha256": cfg.sha256(),
        "config": cfg.describe(),
        "scheme": SCHEME_OPTIMIZED,
        "n_antennas": g.n_antennas,
        "f_delta_hz": cfg.f_delta_hz,
        "box_half_width_hz": box,
        "seed": cfg.seed,
        "objective": objective_and_gradient(g, bob, np.asarray(offsets))[0],
        "start_index": result.start_index,
        "iterations": result.iterations,
        # the search has no iteration cap to hit; the key stays for the
        # readers of optimize.json (perfbench's check_optimize among them)
        "converged": True,
        "offsets_hz": list(offsets),
    }
    path = os.path.join(out_dir, "optimize.json")
    with _atomic_text_file(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path]


def _selftest_checks(cfg: ExperimentConfig):
    g = cfg.geometry()
    bob = cfg.bob()

    def check_xi_roundtrip():
        ys = np.logspace(-8, 1, 40)
        return all(abs(xi(xi_inv(y)) - y) <= 1e-10 for y in ys)

    def check_linear_plan():
        offs = linear_fda_plan(g, cfg.f_delta_hz).offsets()
        return abs(offs.sum()) < 1e-6 and np.allclose(np.diff(offs), -cfg.f_delta_hz)

    def check_random_reproducible():
        a = random_fda_plan(g, cfg.f_delta_hz, 7).offsets_hz
        b = random_fda_plan(g, cfg.f_delta_hz, 7).offsets_hz
        return a == b

    def check_mrt_snr():
        plan = _plan_for(cfg, "LPA")
        h = channel_vector(g, plan, bob)
        w = mrt_weights(h)
        gamma = snr_bob(cfg.link_budget(), h, w)
        return abs(float(np.linalg.norm(w)) - 1.0) < 1e-12 and gamma > 0

    def check_gradient():
        rng = np.random.default_rng(3)
        box = cfg.f_delta_hz / 2
        h = 1e3  # the objective is quadratic: central differences are h-exact
        for _ in range(3):
            f = rng.uniform(-box, box, g.n_antennas)
            _, grad = objective_and_gradient(g, bob, f)
            e = np.zeros_like(f)
            i = int(rng.integers(0, g.n_antennas))
            e[i] = 1.0
            jp = objective_and_gradient(g, bob, f + h * e)[0]
            jm = objective_and_gradient(g, bob, f - h * e)[0]
            fd = (jp - jm) / (2 * h)
            if abs(fd - grad[i]) > 1e-5 * max(abs(fd), abs(grad[i])):
                return False
        return True

    small = GridSpec(0.0, 8.0, 0.0, 8.0, 0.1)

    def check_map_determinism():
        plan = _plan_for(cfg, "RandomFDA", seed=1)
        a = evaluate_grid(g, plan, bob, small, n_threads=1)
        b = evaluate_grid(g, plan, bob, small, n_threads=3)
        return np.array_equal(a.values, b.values, equal_nan=True)

    def check_certified_mask():
        # the float32 error bound rests on numpy's float32 sin/cos accuracy
        plan = _plan_for(cfg, "RandomFDA", seed=1)
        mode, value = cfg.effective_threshold()
        error, bound = float32_error(g, plan, bob, small)
        exact = extract_noncovert(evaluate_grid(g, plan, bob, small), mode, value)
        certified = noncovert_region(g, plan, bob, small, mode, value)
        return error <= bound and np.array_equal(exact.mask, certified.mask)

    return [
        ("xi inverse round-trip", check_xi_roundtrip),
        ("linear plan structure", check_linear_plan),
        ("random plan reproducibility", check_random_reproducible),
        ("MRT weights and SNR", check_mrt_snr),
        ("objective gradient vs finite differences", check_gradient),
        ("grid thread-count invariance", check_map_determinism),
        ("certified mask matches float64 mask", check_certified_mask),
    ]


def cmd_selftest(cfg: ExperimentConfig, out_dir: str) -> List[str]:
    failures = 0
    for name, check in _selftest_checks(cfg):
        try:
            ok = check()
        except Exception as exc:  # a crashed invariant is a failed invariant
            ok = False
            print(f"FAIL {name}: {exc}")
        else:
            print(("PASS" if ok else "FAIL") + f" {name}")
        failures += 0 if ok else 1
    if failures:
        raise SelfTestFailure(f"{failures} selftest check(s) failed")
    return []


class SelfTestFailure(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are config errors (exit 1)
        raise ConfigError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fdacovert", description=__doc__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="path to a sectioned key=value config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable)",
    )
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--plan", help="plan JSON emitted by 'optimize'; accepted only by 'region'"
    )
    return parser


_HANDLERS = {
    "heatmap": cmd_heatmap,
    "sweep-n": lambda cfg, out: _cmd_sweep(cfg, out, "n_antennas"),
    "sweep-fdelta": lambda cfg, out: _cmd_sweep(cfg, out, "f_delta"),
    "rate": cmd_rate,
    "optimize": cmd_optimize,
    "selftest": cmd_selftest,
}


def _make_out_dir(path: str) -> List[str]:
    """Create the output directory; return the directories made, deepest first."""
    created = []
    head = os.path.abspath(path)
    while not os.path.isdir(head):
        created.append(head)
        head = os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    return created


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        if args.plan is not None and args.subcommand != "region":
            raise ConfigError(
                f"--plan is accepted only by 'region', not by '{args.subcommand}'"
            )
        cfg = load_config(args.config, args.overrides)
        created = _make_out_dir(args.out)
        try:
            if args.subcommand == "region":
                written = cmd_region(cfg, args.out, args.plan)
            else:
                written = _HANDLERS[args.subcommand](cfg, args.out)
        except BaseException:
            for path in created:  # deepest first; one with files in it stays
                try:
                    os.rmdir(path)
                except OSError:
                    break
            raise
        for path in written:
            print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SelfTestFailure as exc:
        print(f"selftest failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
