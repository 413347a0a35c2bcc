"""Output checks of each workload, recomputed without the program's code.

Every check reads one output of a workload and yields one Outcome, which the
benchmark counts as one operation.  The references restate the method from
its definitions: phases phi_n = k_n (r + delta_n^2 d^2 / 2r - delta_n d y / r)
with delta_n = n - 1, the boundary-ellipse coefficients as pairwise sums, the
KL budget inverted with brentq and the finite-blocklength rate through
``statistics.NormalDist``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Dict, List, Tuple

import numpy as np
from scipy.optimize import brentq

SPEED_OF_LIGHT = 299_792_458.0
VALUE_ATOL = 1e-9  # heatmap values against the reference beampattern
REL_TOL = 1e-9  # objective, threshold q and point rate
EDGE_TOL = 1e-9  # cells this close to the threshold may fall either side
SAMPLE_CELLS = 2000  # heatmap cells compared per scheme
KL_SAMPLE_NODES = 50_000  # nodes classified per rate row
N_SIGMA = 5.0

# the config keys every output's header must echo back unchanged
GEOMETRY_KEYS = (
    "geometry.n_antennas", "geometry.carrier_hz", "plan.f_delta_hz",
    "bob.r_m", "bob.theta_deg", "grid.x_min_m", "grid.x_max_m",
    "grid.y_min_m", "grid.y_max_m", "grid.step_m",
)
BUDGET_KEYS = (
    "budget.p_t_dbm", "budget.sigma_b_dbm", "budget.sigma_w_dbm",
    "budget.epsilon", "budget.blocklength", "budget.delta_fep",
)


@dataclass(frozen=True)
class Outcome:
    name: str
    ok: bool
    detail: str = ""
    known_fault: bool = False


def _check(name: str, fn: Callable[[], Tuple[bool, str]], known_fault: bool = False) -> Outcome:
    try:
        ok, detail = fn()
    except (OSError, ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
        return Outcome(name, False, f"{type(exc).__name__}: {exc}")
    return Outcome(name, bool(ok), detail, known_fault and not ok)


# ---------------------------------------------------------------- reading


def read_csv(path: str):
    """(metadata, header, body text) of a CSV written by the CLI."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    meta, pos = {}, 0
    while text.startswith("#", pos):
        end = text.index("\n", pos)
        key, _, value = text[pos + 1:end].strip().partition("=")
        meta[key] = value
        pos = end + 1
    end = text.index("\n", pos)
    return meta, text[pos:end].split(","), text[end + 1:]


def read_table(path: str):
    """(metadata, float array) of a numeric CSV."""
    meta, _, body = read_csv(path)
    return meta, np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def read_rows(path: str):
    """(metadata, list of row dicts) of a small CSV."""
    meta, header, body = read_csv(path)
    return meta, list(csv.DictReader(io.StringIO(body), fieldnames=header))


def config_mismatches(meta: dict, w, keys) -> List[str]:
    """Keys whose ``cfg.*`` header value differs from the workload's."""
    bad = []
    for key in keys:
        want, got = w.param(key), meta.get(f"cfg.{key}")
        if got is None or float(got) != float(want):
            bad.append(f"{key}={got} (want {want})")
    return bad


# ---------------------------------------------------------------- physics


class Grid:
    """The evaluation lattice: nodes x_min + i*step on both axes."""

    def __init__(self, w):
        self.x0, self.x1 = w.param("grid.x_min_m"), w.param("grid.x_max_m")
        self.y0, self.y1 = w.param("grid.y_min_m"), w.param("grid.y_max_m")
        self.step = w.param("grid.step_m")
        self.n_x = int(math.floor((self.x1 - self.x0) / self.step + 1e-9)) + 1
        self.n_y = int(math.floor((self.y1 - self.y0) / self.step + 1e-9)) + 1
        self.n_cells = self.n_x * self.n_y
        self.xs = self.x0 + self.step * np.arange(self.n_x)
        self.ys = self.y0 + self.step * np.arange(self.n_y)

    def node(self, x: float, y: float) -> int:
        """Row-major index of the node nearest to (x, y)."""
        ix = int(round((x - self.x0) / self.step))
        iy = int(round((y - self.y0) / self.step))
        return iy * self.n_x + ix

    def points(self, idx: np.ndarray):
        return self.xs[idx % self.n_x], self.ys[idx // self.n_x]


class Array:
    """A uniform linear array on the y-axis with per-element offsets."""

    def __init__(self, w, offsets_hz, n_antennas=None):
        self.n = int(n_antennas or w.param("geometry.n_antennas"))
        self.carrier = w.param("geometry.carrier_hz")
        self.offsets = np.asarray(offsets_hz, dtype=float)
        if self.offsets.shape != (self.n,):
            raise ValueError(f"{self.offsets.size} offsets for {self.n} antennas")
        self.wavelength = SPEED_OF_LIGHT / self.carrier
        self.d = self.wavelength / 2.0
        self.k = 2.0 * math.pi * (self.carrier + self.offsets) / SPEED_OF_LIGHT
        self.r_b = w.param("bob.r_m")
        self.theta_b = math.radians(w.param("bob.theta_deg"))
        self.focus_xy = (self.r_b * math.cos(self.theta_b), self.r_b * math.sin(self.theta_b))

    def _path(self, r, sin_t):
        delta = np.arange(self.n, dtype=float)
        return (r[:, None] + (delta * delta * self.d * self.d)[None, :] / (2.0 * r[:, None])
                - (delta * self.d)[None, :] * sin_t[:, None])

    def correlation(self, x, y) -> np.ndarray:
        """|sum_n exp(j (phi_n(x, y) - phi_n(focus)))|^2 at each point."""
        x, y = np.atleast_1d(np.asarray(x, float)), np.atleast_1d(np.asarray(y, float))
        r = np.hypot(x, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            dp = self._path(r, y / r) - self._path(
                np.array([self.r_b]), np.array([math.sin(self.theta_b)])
            )
        return np.abs(np.exp(1j * dp * self.k[None, :]).sum(axis=1)) ** 2

    def beam_gain(self, x, y) -> np.ndarray:
        """Warden beam gain |h_w^H w|^2 = beta(r)^2 |S|^2 / N^3 under MRT."""
        r = np.hypot(x, y)
        with np.errstate(divide="ignore"):
            beta = self.wavelength / (4.0 * math.pi * r)
        return beta**2 * self.correlation(x, y) / self.n**3


def plan_offsets(scheme: str, n: int, f_delta: float, seed: int) -> np.ndarray:
    """Offsets from each scheme's definition (OptimizedFDA excluded)."""
    if scheme == "LPA":
        return np.zeros(n)
    if scheme == "LinearFDA":
        return ((n + 1) / 2.0 - np.arange(1, n + 1)) * f_delta
    if scheme == "RandomFDA":
        return np.random.default_rng(seed).uniform(-n / 2.0, n / 2.0, n) * f_delta
    raise ValueError(f"no closed-form offsets for {scheme}")


def ellipse_objective(w, offsets_hz) -> float:
    """g1*g3 - g2^2 with the coefficients written as pairwise double sums."""
    arr = Array(w, offsets_hz)
    delta = np.arange(arr.n, dtype=float)
    psi = arr.carrier * arr.d**2 / (2.0 * arr.r_b**2) * delta**2 - arr.offsets
    kappa = arr.carrier * arr.d * math.cos(arr.theta_b)
    k4 = 4.0 * math.pi**2 / SPEED_OF_LIGHT**2
    dpsi = psi[:, None] - psi[None, :]
    ddel = delta[:, None] - delta[None, :]
    g1 = k4 * float(np.sum(dpsi * dpsi))
    g2 = k4 * kappa * float(np.sum(dpsi * ddel))
    g3 = k4 * kappa**2 * float(np.sum(ddel * ddel))
    return g1 * g3 - g2 * g2


def dbm_to_w(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def kl_threshold(w) -> float:
    """q = (sigma_w^2 / P_t) * nu with nu - ln(1 + nu) = 2 eps^2 / L."""
    y = 2.0 * w.param("budget.epsilon") ** 2 / w.param("budget.blocklength")
    nu = brentq(lambda v: v - math.log1p(v) - y, 0.0, 2.0 * y + 2.0, xtol=1e-300, rtol=1e-15)
    return dbm_to_w(w.param("budget.sigma_w_dbm")) / dbm_to_w(w.param("budget.p_t_dbm")) * nu


def point_rate(w) -> float:
    """Normal-approximation rate at gamma = P_t beta^2(r_b) / (N sigma_b^2)."""
    n, L, delta = w.param("geometry.n_antennas"), w.param("budget.blocklength"), w.param("budget.delta_fep")
    beta = SPEED_OF_LIGHT / w.param("geometry.carrier_hz") / (4.0 * math.pi * w.param("bob.r_m"))
    gamma = dbm_to_w(w.param("budget.p_t_dbm")) * beta**2 / (n * dbm_to_w(w.param("budget.sigma_b_dbm")))
    dispersion = gamma * (gamma + 2.0) / (L * (gamma + 1.0) ** 2)
    q_inv = NormalDist().inv_cdf(1.0 - delta)
    return max(0.0, math.log2(1.0 + gamma) - math.sqrt(dispersion) * q_inv / math.log(2.0))


def _rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


# ---------------------------------------------------------------- emit-maps


def _lattice_ok(data: np.ndarray, grid: Grid) -> bool:
    return (
        data.shape == (grid.n_cells, 3)
        and np.array_equal(data[:, 0], np.tile(grid.xs, grid.n_y))
        and np.array_equal(data[:, 1], np.repeat(grid.ys, grid.n_x))
    )


def check_optimize(path: str, w) -> Tuple[bool, str]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    f = np.asarray(data["offsets_hz"], dtype=float)
    box = w.param("plan.f_delta_hz") / 2.0
    n = w.param("geometry.n_antennas")
    j_own = ellipse_objective(w, f)
    ramp = np.clip(plan_offsets("LinearFDA", n, w.param("plan.f_delta_hz"), 0), -box, box)
    j_floor = max(ellipse_objective(w, np.zeros(n)), ellipse_objective(w, ramp))
    problems = []
    if f.shape != (n,) or np.max(np.abs(f)) > box:
        problems.append(f"offsets outside +-{box} Hz")
    if data["converged"] is not True:
        problems.append("not converged")
    if not _rel_close(data["objective"], j_own):
        problems.append(f"objective {data['objective']!r} != recomputed {j_own!r}")
    if data["objective"] < j_floor * (1.0 - REL_TOL):
        problems.append(f"objective below the zero/ramp starts ({j_floor!r})")
    return not problems, "; ".join(problems)


def check_heatmap(path: str, w, arr: Array, cells: np.ndarray):
    """(values, verdict) of one heatmap CSV."""
    meta, data = read_table(path)
    grid = Grid(w)
    if not _lattice_ok(data, grid):
        raise ValueError(f"not the {grid.n_x}x{grid.n_y} lattice: shape {data.shape}")
    problems = config_mismatches(meta, w, GEOMETRY_KEYS)
    v = data[:, 2]
    focus = grid.node(*arr.focus_xy)
    if v[focus] != 1.0:
        problems.append(f"focus cell reads {v[focus]!r}")
    if grid.x0 == 0.0 and grid.y0 == 0.0 and not math.isnan(v[0]):
        problems.append(f"origin reads {v[0]!r}")
    ref = arr.correlation(*grid.points(cells)) / arr.correlation(*grid.points(np.array([focus])))[0]
    got = v[cells]
    valid = ~np.isnan(ref)
    err = float(np.max(np.abs(got[valid] - ref[valid]), initial=0.0))
    if not np.array_equal(np.isnan(got), ~valid) or err > VALUE_ATOL:
        problems.append(f"sampled values off by up to {err:.3g}")
    return v, (not problems, "; ".join(problems))


def check_region(path: str, w, heat: np.ndarray):
    """(mask, verdict) of one region CSV against its heatmap."""
    _, data = read_table(path)
    grid = Grid(w)
    if not _lattice_ok(data, grid):
        raise ValueError(f"not the {grid.n_x}x{grid.n_y} lattice: shape {data.shape}")
    mask = data[:, 2] != 0.0
    with np.errstate(invalid="ignore"):
        want = heat >= w.param("threshold.value")
    bad = int(np.count_nonzero(mask != want))
    return mask, (bad == 0, f"{bad} mask cells differ from heatmap >= threshold")


def check_region_summary(path: str, w, masks: Dict[str, np.ndarray]) -> Tuple[bool, str]:
    _, rows = read_rows(path)
    grid = Grid(w)
    problems = []
    if [r["scheme"] for r in rows] != list(w.param("sweep.schemes")):
        problems.append(f"schemes {[r['scheme'] for r in rows]}")
    for row in rows:
        count = int(np.count_nonzero(masks[row["scheme"]]))
        if (int(row["n_noncovert"]) != count
                or not _rel_close(float(row["area_m2"]), count * grid.step**2, 1e-12)
                or not _rel_close(float(row["area_fraction"]), count / grid.n_cells, 1e-12)):
            problems.append(f"{row['scheme']}: {dict(row)} vs {count} masked cells")
    return not problems, "; ".join(problems)


def check_optimize_output(out: str, w, state: dict) -> List[Outcome]:
    """optimize.json; keeps its offsets for the OptimizedFDA heatmap."""
    path = os.path.join(out, "optimize.json")

    def one():
        with open(path, "r", encoding="utf-8") as fh:
            state["optimized_offsets"] = json.load(fh)["offsets_hz"]
        return check_optimize(path, w)

    return [_check("optimize.json", one)]


def check_heatmap_output(out: str, w, state: dict) -> List[Outcome]:
    """Every heatmap CSV; keeps the values for the region masks."""
    grid = Grid(w)
    cells = w.sample_rng().choice(grid.n_cells, size=min(SAMPLE_CELLS, grid.n_cells), replace=False)
    n, f_delta, seed = w.param("geometry.n_antennas"), w.param("plan.f_delta_hz"), w.param("plan.seed")
    heat = state.setdefault("heat", {})

    def one(scheme):
        if scheme == "OptimizedFDA":
            offsets = state["optimized_offsets"]
        else:
            offsets = plan_offsets(scheme, n, f_delta, seed)
        path = os.path.join(out, f"heatmap_{scheme}.csv")
        heat[scheme], verdict = check_heatmap(path, w, Array(w, offsets), cells)
        return verdict

    return [_check(f"heatmap_{s}.csv", lambda s=s: one(s)) for s in w.param("sweep.schemes")]


def check_region_output(out: str, w, state: dict) -> List[Outcome]:
    """Every region mask against its heatmap, then the summary."""
    masks: Dict[str, np.ndarray] = {}

    def one(scheme):
        path = os.path.join(out, f"region_{scheme}.csv")
        masks[scheme], verdict = check_region(path, w, state["heat"][scheme])
        return verdict

    outcomes = [_check(f"region_{s}.csv", lambda s=s: one(s)) for s in w.param("sweep.schemes")]
    summary = os.path.join(out, "region_summary.csv")
    outcomes.append(_check("region_summary.csv", lambda: check_region_summary(summary, w, masks)))
    return outcomes


# ---------------------------------------------------------------- sweep-kernel


def fraction_bounds(w, arr: Array, threshold: float, chunk: int = 1 << 16) -> Tuple[int, int]:
    """(lo, hi) non-covert cell counts of a full reference map.

    lo counts cells clearly at or above the threshold, hi adds the cells
    within EDGE_TOL of it, which float rounding may put on either side.
    """
    grid = Grid(w)
    focus = arr.correlation(*grid.points(np.array([grid.node(*arr.focus_xy)])))[0]
    lo = hi = 0
    for start in range(0, grid.n_cells, chunk):
        v = arr.correlation(*grid.points(np.arange(start, min(start + chunk, grid.n_cells)))) / focus
        with np.errstate(invalid="ignore"):
            lo += int(np.count_nonzero(v > threshold + EDGE_TOL))
            hi += int(np.count_nonzero(v >= threshold - EDGE_TOL))
    return lo, hi


SWEEPS = {"sweep_n": ("n_antennas", "sweep.n_values"),
          "sweep_fdelta": ("f_delta", "sweep.f_delta_values_hz")}


def check_sweep_output(label: str, out: str, w, state: dict) -> List[Outcome]:
    """One sweep CSV; its rows are kept for the checks after the other sweep.

    After ``sweep_n``: the rows and an independent reference map.  After
    ``sweep_fdelta``: the rows, LPA's independence of F, agreement of the two
    sweeps, and the known OptimizedFDA-versus-LPA fault, one outcome per row.
    """
    grid = Grid(w)
    schemes = w.param("sweep.schemes")
    parameter, values_key = SWEEPS[label]
    values = w.param(values_key)
    tables = state.setdefault("sweeps", {})

    def rows_ok():
        _, rows = read_rows(os.path.join(out, f"{label}.csv"))
        keys = [(r["scheme"], float(r[parameter])) for r in rows]
        problems = []
        if keys != [(s, float(v)) for v in values for s in schemes]:
            problems.append(f"rows {keys}")
        for r in rows:
            random = r["scheme"] == "RandomFDA"
            mean = float(r["mean_area_fraction"])
            if int(r["n_seeds"]) != (len(w.param("sweep.seeds")) if random else 1):
                problems.append(f"{r['scheme']} n_seeds={r['n_seeds']}")
            if not random and float(r["std_area_fraction"]) != 0.0:
                problems.append(f"{r['scheme']} std={r['std_area_fraction']}")
            if not (0.0 <= mean <= 1.0 and _rel_close(
                    float(r["mean_area_m2"]), mean * grid.n_cells * grid.step**2, 1e-12)):
                problems.append(f"{r['scheme']} area {r['mean_area_m2']} for fraction {mean}")
        tables[parameter] = dict(zip(keys, rows))
        return not problems, "; ".join(problems)

    def reference_map():
        n = min(values)
        arr = Array(w, plan_offsets("LinearFDA", n, w.param("plan.f_delta_hz"), 0), n_antennas=n)
        lo, hi = fraction_bounds(w, arr, w.param("threshold.value"))
        count = round(float(tables[parameter][("LinearFDA", float(n))]["mean_area_fraction"]) * grid.n_cells)
        return lo <= count <= hi, f"LinearFDA N={n}: {count} cells, reference {lo}..{hi}"

    def lpa_constant():
        fr = [tables["f_delta"][("LPA", float(f))]["mean_area_fraction"] for f in values]
        return len(set(fr)) == 1, f"LPA fractions {fr}"

    def sweeps_agree():
        n, f = float(w.param("geometry.n_antennas")), float(w.param("plan.f_delta_hz"))
        cols = ("mean_area_fraction", "std_area_fraction", "mean_area_m2", "n_seeds")
        bad = [s for s in schemes
               if any(tables["n_antennas"][(s, n)][c] != tables["f_delta"][(s, f)][c] for c in cols)]
        return not bad, f"N={n:g} and F={f:g} rows differ for {bad}"

    def no_worse_than_lpa(p, value):
        opt = float(tables[p][("OptimizedFDA", float(value))]["mean_area_fraction"])
        lpa = float(tables[p][("LPA", float(value))]["mean_area_fraction"])
        return opt <= lpa, f"OptimizedFDA {opt:.5f} > LPA {lpa:.5f}"

    outcomes = [_check(f"{label}.csv", rows_ok)]
    if label == "sweep_n":
        return outcomes + [_check("LinearFDA reference map", reference_map)]
    outcomes.append(_check("LPA fraction constant in F", lpa_constant))
    outcomes.append(_check("sweep_n and sweep_fdelta agree", sweeps_agree))
    for p, key in SWEEPS.values():
        outcomes += [
            _check(f"OptimizedFDA <= LPA at {p}={v:g}",
                   lambda p=p, v=v: no_worse_than_lpa(p, v), known_fault=True)
            for v in w.param(key)
        ]
    return outcomes


# ---------------------------------------------------------------- rate-fine-kl


def check_rate_output(out: str, w, state: dict) -> List[Outcome]:
    """The kl threshold, then point rate, area fraction and Monte-Carlo mean
    of every rate.csv row."""
    grid = Grid(w)
    n, f_delta = w.param("geometry.n_antennas"), w.param("plan.f_delta_hz")
    path = os.path.join(out, "rate.csv")
    q, rate = kl_threshold(w), point_rate(w)
    nodes = w.sample_rng().choice(grid.n_cells, size=min(KL_SAMPLE_NODES, grid.n_cells), replace=False)
    x, y = grid.points(nodes)
    want_rows = [(s, seed) for s in w.param("sweep.schemes")
                 for seed in (w.param("sweep.seeds") if s == "RandomFDA" else (w.param("plan.seed"),))]
    table: Dict[Tuple[str, int], dict] = {}

    def header():
        meta, rows = read_rows(path)
        table.update({(r["scheme"], int(r["plan_seed"])): r for r in rows})
        problems = config_mismatches(meta, w, GEOMETRY_KEYS + BUDGET_KEYS)
        if meta.get("threshold_mode") != "kl" or not _rel_close(float(meta["threshold_value"]), q):
            problems.append(f"threshold {meta.get('threshold_value')} != q {q!r}")
        if [(r["scheme"], int(r["plan_seed"])) for r in rows] != want_rows:
            problems.append(f"rows {list(table)}")
        if any(int(r["n_samples"]) != w.param("mc.n_samples") for r in rows):
            problems.append("n_samples")
        return not problems, "; ".join(problems)

    def row_rate(key):
        got = float(table[key]["point_rate"])
        return _rel_close(got, rate), f"point_rate {got!r} != {rate!r}"

    def row_fraction(key):
        arr = Array(w, plan_offsets(key[0], n, f_delta, key[1]))
        with np.errstate(invalid="ignore"):
            p_hat = float(np.mean(arr.beam_gain(x, y) >= q))
        f = float(table[key]["area_fraction"])
        bound = N_SIGMA * math.sqrt(max(f * (1.0 - f), 1.0 / nodes.size) / nodes.size)
        return abs(p_hat - f) <= bound, f"area_fraction {f:.5f}, sampled {p_hat:.5f} +- {bound:.5f}"

    def row_mean(key):
        r = table[key]
        mean, se, pr = float(r["mean_rate"]), float(r["std_error"]), float(r["point_rate"])
        f, m = float(r["area_fraction"]), int(r["n_samples"])
        tol = N_SIGMA * max(se / pr, 1.0 / m)
        return abs(mean / pr - (1.0 - f)) <= tol, f"mean/point {mean / pr:.5f} vs 1-fraction {1 - f:.5f}"

    outcomes = [_check("rate.csv threshold and rows", header)]
    for key in want_rows:
        label = f"rate {key[0]} seed {key[1]}"
        outcomes += [
            _check(f"{label} point_rate", lambda k=key: row_rate(k)),
            _check(f"{label} area_fraction", lambda k=key: row_fraction(k)),
            _check(f"{label} mean_rate", lambda k=key: row_mean(k)),
        ]
    return outcomes


# subcommand label -> checks of the outputs it has just written; ``state``
# carries what a later check of the same round needs, so that each output can
# be removed as soon as it is checked
CHECKS = {
    "optimize": check_optimize_output,
    "heatmap": check_heatmap_output,
    "region": check_region_output,
    "sweep_n": lambda out, w, state: check_sweep_output("sweep_n", out, w, state),
    "sweep_fdelta": lambda out, w, state: check_sweep_output("sweep_fdelta", out, w, state),
    "rate": check_rate_output,
}


def check_round(out: str, w) -> List[Outcome]:
    """All checks of a round whose outputs are all still in ``out``."""
    state: dict = {}
    return [o for label in w.commands for o in CHECKS[label](out, w, state)]
