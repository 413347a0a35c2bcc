"""The benchmark's workloads: which CLI invocations each runs, with which settings.

A workload seed picks the RandomFDA plan seeds and the check-sample cells;
the program only ever sees the resulting ``--set`` values.  DEFAULTS restates
the program's documented defaults so that the output checks can recompute
results without reading the program's configuration code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

DEFAULTS: Dict[str, object] = {
    "geometry.n_antennas": 64,
    "geometry.carrier_hz": 3e9,
    "plan.f_delta_hz": 1e6,
    "plan.seed": 0,
    "bob.r_m": 7.0711,
    "bob.theta_deg": 45.0,
    "budget.p_t_dbm": 20.0,
    "budget.sigma_b_dbm": -60.0,
    "budget.sigma_w_dbm": -60.0,
    "budget.epsilon": 1.0,
    "budget.blocklength": 100,
    "budget.delta_fep": 1e-5,
    "grid.x_min_m": 0.0,
    "grid.x_max_m": 40.0,
    "grid.y_min_m": 0.0,
    "grid.y_max_m": 40.0,
    "grid.step_m": 0.05,
    "threshold.value": 0.1,
    "sweep.schemes": ("LPA", "LinearFDA", "RandomFDA", "OptimizedFDA"),
    "sweep.n_values": (16, 32, 64),
    "sweep.f_delta_values_hz": (0.25e6, 0.5e6, 1e6, 2e6),
    "sweep.seeds": tuple(range(10)),
    "mc.n_samples": 100_000,
}

# label -> CLI subcommand, in the order a workload runs them
SUBCOMMANDS = {
    "optimize": "optimize",
    "heatmap": "heatmap",
    "region": "region",
    "sweep_n": "sweep-n",
    "sweep_fdelta": "sweep-fdelta",
    "rate": "rate",
}

WORKLOADS = {
    "emit-maps": ("optimize", "heatmap", "region"),
    "sweep-kernel": ("sweep_n", "sweep_fdelta"),
    "rate-fine-kl": ("rate",),
}


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_text(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Tuple[str, ...]
    overrides: Dict[str, object]
    sample_seed: np.random.SeedSequence
    # plan seed of the RandomFDA map the single-thread probe re-evaluates
    probe_seed: int

    def param(self, key: str):
        return self.overrides.get(key, DEFAULTS[key])

    def sets(self) -> list:
        """The exact ``--set`` arguments passed to every CLI invocation."""
        return [f"{k}={_text(v)}" for k, v in self.overrides.items()]

    def argv(self, label: str, out_dir: str) -> list:
        args = [SUBCOMMANDS[label], "--out", out_dir]
        for s in self.sets():
            args += ["--set", s]
        return args

    def sample_rng(self) -> np.random.Generator:
        """A fresh generator for picking check-sample cells."""
        return np.random.default_rng(self.sample_seed)


def make_workload(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    plan_ss, sample_ss = np.random.SeedSequence(seed).spawn(2)
    plan_seeds = [int(s) for s in np.random.default_rng(plan_ss).choice(10_000, 3, replace=False)]
    if name == "emit-maps":
        overrides = {"plan.seed": plan_seeds[0]}
    elif name == "sweep-kernel":
        overrides = {"sweep.seeds": tuple(plan_seeds)}
    else:
        overrides = {
            "grid.step_m": 0.02,
            "grid.max_cells": 20_000_000,
            "threshold.mode": "kl",
            "sweep.schemes": ("LinearFDA", "RandomFDA"),
            "sweep.seeds": tuple(plan_seeds[:2]),
            "mc.n_samples": 1_000_000,
        }
    return Workload(name, WORKLOADS[name], overrides, sample_ss, plan_seeds[0])
