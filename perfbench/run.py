"""End-to-end and per-layer benchmark of the fdacovert command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's CLI invocations as separate ``python -m fdacovert.cli``
processes (started through spawn.py) at the program's default thread count,
in whole rounds until S seconds of CLI wall time are measured, and checks the
outputs of each invocation against the benchmark's own computations
(checks.py).  ``--trace 0`` reports
the end-to-end metrics.  ``--trace 1`` runs the same rounds with spans
recorded inside each CLI process (spans.py), adds a one-thread map probe and
reports the per-layer metrics.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.

Each round writes to a temporary directory under .perfbench/ in the
checkout, emptied after each invocation's checks; the span trace of a traced run stays in
.perfbench/traces/.  The program is run from src/ of the checkout; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import checks
import spans
from workloads import WORKLOADS, make_workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 3
# children still running this long after the start are killed, so that a
# hung program fails its operations instead of the whole run
DEADLINE = time.monotonic() + 165.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# per-layer metrics; each is measured on every workload
PER_LAYER = {
    "config.load_s": "s",
    "schemes.plan_s": "s",
    "schemes.plans": "count",
    "ellipse.solves": "count",
    "ellipse.objective_evals": "count",
    "fieldmap.evaluate_s": "s",
    "fieldmap.evaluate_s.polynomial": "s",
    "fieldmap.evaluate_s.nonpolynomial": "s",
    "fieldmap.maps": "count",
    "fieldmap.cells": "count",
    "fieldmap.cell_antenna_evals": "count",
    "fieldmap.cell_antenna_rate": "Mevals/s",
    "fieldmap.cell_antenna_rate_1t": "Mevals/s",
    "fieldmap.extract_s": "s",
    "fieldmap.mc_samples": "count",
    "cli.emit_s": "s",
    "cli.emit_rows": "count",
    "cli.emit_bytes": "B",
    "cli.emit_mb_per_s": "MB/s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# times of layers that only some workloads exercise: printed, not in the JSON
# result, where a metric must be measured on every workload
DETAIL = {
    "ellipse.optimize_s": "s",
    "fieldmap.mc_s": "s",
    **{f"fieldmap.evaluate_s.{s}": "s" for s in spans.SCHEMES},
}


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    output: str


@dataclass
class Round:
    walls: Dict[str, float] = field(default_factory=dict)
    cpu: float = 0.0
    rss_mb: float = 0.0
    outcomes: List[checks.Outcome] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


class Spawner:
    """Runs ``python ARGS`` children through spawn.py, one at a time."""

    def __enter__(self):
        env = {k: v for k, v in os.environ.items() if k != "FDACOVERT_THREADS"}
        env["PYTHONPATH"] = SRC
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawn.py"), WORK],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()

    def run(self, args: List[str]) -> Proc:
        """Run ``python args`` to its end: its wall time, rusage and output."""
        request = {"argv": [sys.executable] + args,
                   "timeout": max(1.0, DEADLINE - time.monotonic())}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        return Proc(**json.loads(self._proc.stdout.readline()))

    def json(self, args: List[str]) -> Tuple[float, dict]:
        """(wall time, the JSON object on the last output line) of child.py ``args``."""
        p = self.run([CHILD] + args)
        if p.code != 0:
            raise RuntimeError(f"child.py {args[0]} exited {p.code}: {p.output[-2000:]}")
        return p.wall_s, json.loads(p.output.strip().splitlines()[-1])


def run_round(spawner: Spawner, w, out: str, trace_file: Optional[str]) -> Round:
    """One pass over the workload's CLI invocations.

    The outputs of each invocation are checked right after it and then
    removed, so most of the 160 MB of CSVs of ``emit-maps`` are gone before
    the kernel writes them back to disk.  Kept to the end of the round,
    they were written back, and ten back-to-back runs grew steadily slower,
    the last by half.
    """
    r = Round()
    state: dict = {}
    for label in w.commands:
        cli_args = w.argv(label, out)
        prefix = ["-m", "fdacovert.cli"] if trace_file is None else [CHILD, "trace", trace_file]
        p = spawner.run(prefix + cli_args)
        r.walls[label] = p.wall_s
        r.cpu += p.cpu_s
        r.rss_mb = max(r.rss_mb, p.rss_mb)
        r.outcomes.append(checks.Outcome(
            f"fdacovert {cli_args[0]}", p.code == 0, f"exit {p.code}: {p.output[-500:]}"))
        r.outcomes += checks.CHECKS[label](out, w, state)
        for name in os.listdir(out):
            os.unlink(os.path.join(out, name))
    return r


def measure(spawner: Spawner, w, seconds: float, trace_file: Optional[str]):
    """(rounds, metrics, correctness problems) of one benchmark run."""
    # the first set-up also fills the bytecode cache; the median absorbs it
    setup = [spawner.json(["setup"] + w.sets()) for _ in range(1 if trace_file else SETUP_SAMPLES)]
    facts = setup[0][1]
    print("machine: " + " ".join(f"{k}={','.join(v) if k == 'simd' else v}" for k, v in facts.items()))
    rounds: List[Round] = []
    while not rounds or sum(r.wall for r in rounds) < seconds:
        with tempfile.TemporaryDirectory(dir=WORK, prefix="out-") as out:
            rounds.append(run_round(spawner, w, out, trace_file))
    wall = statistics.median(r.wall for r in rounds)
    if trace_file is None:
        return rounds, {
            "wall_s": wall,
            "cpu_s": statistics.median(r.cpu for r in rounds),
            "peak_rss_mb": max(r.rss_mb for r in rounds),
            "setup_s": statistics.median(wall for wall, _ in setup),
        }, []

    metrics = spans.layer_metrics(*spans.load(trace_file), rounds=len(rounds))
    _, probe = spawner.json(["threads", str(w.probe_seed)] + w.sets())
    metrics["fieldmap.cell_antenna_rate_1t"] = probe["cell_antenna_evals"] / probe["single_s"] / 1e6
    metrics["trace.wall_s"] = wall
    problems = []
    if not probe["identical"]:
        problems.append(f"1-thread map differs from the {probe['threads']}-thread map")
    return rounds, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fdacovert", "cli.py")):
        print(f"perfbench: no fdacovert sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    w = make_workload(args.workload, args.seed)
    print(f"workload {w.name} seed {args.seed}: " + " ".join(f"--set {s}" for s in w.sets()))

    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        trace_file = os.path.join(WORK, "traces", f"{w.name}-seed{args.seed}.jsonl")
        if os.path.exists(trace_file):
            os.unlink(trace_file)
    with Spawner() as spawner:
        rounds, metrics, problems = measure(spawner, w, args.seconds, trace_file)
    outcomes = [o for r in rounds for o in r.outcomes]
    failed = [o for o in outcomes if not o.ok]
    wrong = [o for o in failed if not o.known_fault]
    for o in failed:
        print(f"{'FAILED (known fault)' if o.known_fault else 'FAILED'} {o.name}: {o.detail}")
    for p in problems:
        print(f"FAILED {p}")
    for label in w.commands:  # wall time of each subcommand, traced under --trace 1
        print(f"{label + '_s':34s} {statistics.median(r.walls[label] for r in rounds):14.6g} s")
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in {**units, **(DETAIL if args.trace else {})}.items():
        print(f"{name:34s} {metrics[name]:14.6g} {unit}")
    print(f"{len(rounds)} round(s), {len(outcomes)} operations, {len(failed)} failed")
    print(json.dumps({
        "correct": not wrong and not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
