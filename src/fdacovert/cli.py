"""Command-line experiment runner with bit-exact, reproducible outputs.

Every output file embeds a metadata header (config hash, seeds, version) and
is written via a temp file + rename, with the mode open() would give it
under the umask; a failed run removes the output directory if it made it
and it is still empty, so it leaves nothing behind.
Values are written as fmt writes them.  The grid CSVs of heatmap and region,
one 'x,y,value' line per cell, are written a block of rows at a time, each
block's text formed in whole-array numpy calls by _csvtext.grid_text, byte
for byte what fmt writes per cell.  heatmap writes each row band of a map
as it comes back (fieldmap.value_bands); with worker processes, bands that
finish early wait in this process until written, up to the whole map.
Exit codes: 0 success, 1 config error, 2 runtime error, 3 selftest failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing, contextmanager
from dataclasses import astuple, fields, replace
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import __version__
from ._csvtext import fmt, grid_blocks
from .channel import (
    SCHEME_OPTIMIZED,
    SCHEME_RANDOM,
    FrequencyPlan,
    channel_gain_amplitude,
    channel_vector,
    mrt_weights,
    snr_bob,
)
from .config import ConfigError, ExperimentConfig, load_config
from .covertness import xi, xi_inv
from .ellipse import objective_and_gradient, optimize_offsets
from .fieldmap import (
    GridSpec,
    RateResult,
    SweepRow,
    evaluate_grid,
    extract_noncovert,
    lattice_errors,
    monte_carlo_rate,
    noncovert_region,
    sweep,
    value_bands,
)
from .geometry import ArrayGeometry, DomainError
from .schemes import (
    RegionSpec,
    box_half_width,
    build_plan,
    linear_fda_plan,
    random_fda_plan,
    refine_for_region,
)

@contextmanager
def _atomic_text_file(path: str):
    """Text file handle whose content appears at path only if the block succeeds.

    The temporary file, named for this call by the pid and a random token,
    is created with mode 0o666, which the kernel narrows by the umask, so
    the file gets the mode open() would give it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp_{os.getpid()}_{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def _grid_rows(spec: GridSpec, bands):
    """Text of the cells of bands, 'x,y,value' lines y-outer row-major, a block of rows at a time.

    bands yields (first row, values of the rows from it) in row order.
    """
    x_text, y_text = [fmt(x) for x in spec.xs()], [fmt(y) for y in spec.ys()]
    for i0, band in bands:
        yield from grid_blocks(x_text, y_text[i0:i0 + len(band)], band)


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


def _load_plan_file(path: str, g: ArrayGeometry) -> FrequencyPlan:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        offsets = data["offsets_hz"]
        if not isinstance(offsets, list) or not all(type(v) in (int, float) for v in offsets):
            raise TypeError(f"offsets_hz must be a list of numbers, got {offsets!r}")
        seed = data.get("seed")
        if seed is not None and not (type(seed) is int and seed >= 0):  # bool is an int subclass
            raise TypeError(f"seed must be a non-negative integer or null, got {seed!r}")
        plan = FrequencyPlan(
            offsets_hz=tuple(offsets),
            scheme=data.get("scheme", SCHEME_OPTIMIZED),
            seed=seed,
        )
        plan.check_length(g)
        return plan
    except KeyError as exc:
        raise ConfigError(f"plan file {path} has no key {exc}") from exc
    except (OSError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"cannot read plan file {path}: {exc}") from exc


def cmd_heatmap(cfg: ExperimentConfig, out_dir: str) -> List[str]:
    """heatmap_<scheme>.csv: each scheme's value map, written band by band as it is evaluated."""
    written = []
    grid = cfg.grid()
    for scheme in cfg.sweep_schemes:
        plan = _plan_for(cfg, scheme)
        metadata, bands = value_bands(cfg.geometry(), plan, cfg.bob(), grid)
        if metadata["bob_cell"] is None:
            raise DomainError(
                "heatmap values are normalized to the focus cell, and the focus "
                "lies outside the grid; use a grid that contains the focus"
            )
        meta = _base_metadata(cfg, "heatmap")
        meta.update(scheme=scheme, seed=fmt(plan.seed), step_m=fmt(cfg.step_m))
        path = os.path.join(out_dir, f"heatmap_{scheme}.csv")
        with closing(bands):  # a failed write stops the workers
            emit_csv(path, ["x_m", "y_m", "normalized_power"], _grid_rows(grid, bands), meta)
        written.append(path)
    return written


def cmd_region(cfg: ExperimentConfig, out_dir: str, plan_file: Optional[str] = None) -> List[str]:
    mode, value = cfg.effective_threshold()
    written = []
    summary = []
    if plan_file is not None:
        plan = _load_plan_file(plan_file, cfg.geometry())
        plans = [(plan.scheme, plan)]
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
        emit_csv(path, ["x_m", "y_m", "non_covert"], _grid_rows(grid, [(0, region.mask)]), meta)
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
    header = [parameter if f.name == "value" else f.name for f in fields(SweepRow)]
    emit_csv(path, header, map(astuple, rows), meta)
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
            rows.append((scheme, seed, *astuple(result)[:-1]))  # all but n_covert
    meta = _base_metadata(cfg, "rate")
    meta.update(mc_seed=fmt(cfg.mc_seed), threshold_mode=mode, threshold_value=fmt(value))
    path = os.path.join(out_dir, "rate.csv")
    header = ["scheme", "plan_seed", *(f.name for f in fields(RateResult)[:-1])]
    emit_csv(path, header, rows, meta)
    return [path]


def cmd_optimize(cfg: ExperimentConfig, out_dir: str) -> List[str]:
    """optimize.json: the OptimizedFDA plan that the other subcommands build.

    J's optimum is the starting point, and the run's grid and threshold
    choose the plan (schemes.refine_for_region).  objective is J of the
    written offsets; start_index is the J search's winning start.
    box_half_width refuses an f_delta_hz that is not finite and > 0, as the
    plan route does.
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
        # each start takes one projected step and the search has no
        # iteration cap to hit; the keys stay for the readers of
        # optimize.json (perfbench's check_optimize among them)
        "iterations": 1,
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
    # 201 x 201 nodes make two row bands, which n_threads=3 runs on two workers
    wide = GridSpec(0.0, 20.0, 0.0, 20.0, 0.1)
    # as many nodes about the origin: the first band straddles y = 0
    across = GridSpec(-10.0, 10.0, -10.0, 10.0, 0.1)

    def check_map_determinism():
        plan = _plan_for(cfg, "RandomFDA", seed=1)
        a = evaluate_grid(g, plan, bob, wide, n_threads=1)
        b = evaluate_grid(g, plan, bob, wide, n_threads=3)
        return np.array_equal(a.values, b.values, equal_nan=True)

    def check_certified_mask():
        # the float32 error bound rests on numpy's float32 sin/cos accuracy
        # over every phase the configured grid forms, and the float64 value
        # path's table-driven sin/cos on libm's being within 1 ulp of exact,
        # so the latter's are compared there too.  A lattice over the
        # configured extent, 80 nodes along its longer side, reaches past kl
        # mode's reach radius, where the mask path evaluates no node; its
        # step is at most r_b / 2, so the focus never shares the origin's cell.
        # Whatever the configured mode, the kl mask at the budget's q is
        # compared on the wide grid too: its far corner lies beyond the
        # reach radius at the defaults, so the second of its two bands
        # evaluates a staircase step narrower than the grid.  So is each
        # mode at the thresholds of two cells' own values and gains: the
        # cells of the median value and of the median of the values of 0.1
        # or more.  The cut then passes through a detected cell, in a tile
        # that only a sound tile bound leaves undecided.  On the across
        # grid the kl mask at the focus cell's own gain puts the reach
        # radius through that cell, in a band whose first row is farthest
        # from the x axis: only a step cut at the band's least |y| keeps it.
        plan = _plan_for(cfg, "RandomFDA", seed=1)
        configured = cfg.effective_threshold()
        grid = cfg.grid()
        extent = max(grid.x_max_m - grid.x_min_m, grid.y_max_m - grid.y_min_m)
        coarse = replace(grid, step_m=min(extent / 79, bob.r_m / 2))
        maps = {spec: evaluate_grid(g, plan, bob, spec) for spec in (small, coarse, wide, across)}

        def own_gain(spec, iy, ix):
            # the cell's gain as extract_noncovert's kl mode forms it
            fmap = maps[spec]
            r = float(np.hypot(spec.xs()[ix], spec.ys()[iy]))
            value = fmap.values[iy, ix] * fmap.metadata["bob_cell_raw_correlation"]
            return value * channel_gain_amplitude(g, r) ** 2 / g.n_antennas

        cases = [
            (small, configured),
            (coarse, configured),
            (wide, ("kl", cfg.covertness_budget().threshold_q)),
        ]
        values = maps[wide].values
        if maps[wide].metadata["bob_cell"] is not None:
            finite = np.isfinite(values)
            for pool in (finite, finite & (values >= 0.1)):
                value = np.percentile(values[pool], 50, method="lower")
                iy, ix = np.argwhere(values == value)[0]
                cases += [(wide, ("fraction", value)), (wide, ("kl", own_gain(wide, iy, ix)))]
        if maps[across].metadata["bob_cell"] is not None:
            cases.append((across, ("kl", own_gain(across, *maps[across].metadata["bob_cell"]))))
        return max(lattice_errors(g, plan, bob, grid)) <= 1.0 and all(
            np.array_equal(
                extract_noncovert(maps[spec], mode, float(value)).mask,
                noncovert_region(g, plan, bob, spec, mode, float(value)).mask,
            )
            for spec, (mode, value) in cases
        )

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
    parser.add_argument("subcommand", choices=_HANDLERS)
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
    "region": cmd_region,
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
            handler = _HANDLERS[args.subcommand]
            written = (handler(cfg, args.out) if args.plan is None
                       else handler(cfg, args.out, args.plan))
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
