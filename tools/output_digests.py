"""SHA-256 listing of every output of a fixed set of fdacovert CLI runs.

    python tools/output_digests.py CHECKOUT OUT_DIR

runs CHECKOUT's own CLI (``PYTHONPATH=CHECKOUT/src``), each invocation into
its own subdirectory of OUT_DIR, which must not exist or be empty, and
prints one ``sha256  name`` line per output file and one per invocation's
stdout and stderr.  Before stdout and stderr are hashed, OUT_DIR and
CHECKOUT are replaced by placeholders, and each warning location
(``.../fdacovert/<module>.py:<line>:``) by one token, so that a change that
only moves code lists the same.  Two checkouts are compared with

    diff <(python tools/output_digests.py OLD /tmp/old) \\
         <(python tools/output_digests.py NEW /tmp/new)

The invocations cover every subcommand: optimize, heatmap and region at two
plan seeds, optimize with the kl threshold and at N = 16, heatmap at 1, 2
and 3 worker processes, both sweeps in both
threshold modes over three RandomFDA seeds, rate on the 0.02 m grid with
the kl threshold, and selftest.  Standard library only.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys

SEEDS = "sweep.seeds=8285,6989,153"
RATE = [
    "grid.step_m=0.02", "grid.max_cells=20000000", "threshold.mode=kl",
    "sweep.schemes=LinearFDA,RandomFDA", "sweep.seeds=8285,6989",
    "mc.n_samples=1000000",
]

# (label, subcommand, --set values, FDACOVERT_THREADS or None for unset)
INVOCATIONS = [
    *((f"{sub}-seed{seed}", sub, [f"plan.seed={seed}"], None)
      for seed in (8285, 6989) for sub in ("optimize", "heatmap", "region")),
    ("optimize-kl", "optimize", ["threshold.mode=kl"], None),
    ("optimize-n16", "optimize", ["geometry.n_antennas=16"], None),
    *((f"heatmap-threads{n}", "heatmap", ["plan.seed=8285"], str(n)) for n in (1, 2, 3)),
    *((f"{sub}-{mode}", sub, [SEEDS, f"threshold.mode={mode}"], None)
      for sub in ("sweep-n", "sweep-fdelta") for mode in ("fraction", "kl")),
    ("rate", "rate", RATE, None),
    ("selftest", "selftest", [], None),
]

_LOCATION = re.compile(r"\S*fdacovert[/\\]\w+\.py:\d+:")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _normalized(text: str, out_dir: str, checkout: str) -> bytes:
    text = text.replace(out_dir, "<out>").replace(checkout, "<checkout>")
    return _LOCATION.sub("<warning-location>:", text).encode()


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkout, out_dir = (os.path.abspath(a) for a in argv)
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        print(f"{out_dir} is not empty", file=sys.stderr)
        return 2
    base_env = {k: v for k, v in os.environ.items() if k != "FDACOVERT_THREADS"}
    base_env["PYTHONPATH"] = os.path.join(checkout, "src")
    lines = []
    for label, sub, sets, threads in INVOCATIONS:
        out = os.path.join(out_dir, label)
        env = dict(base_env) if threads is None else dict(base_env, FDACOVERT_THREADS=threads)
        cmd = [sys.executable, "-m", "fdacovert.cli", sub, "--out", out]
        for s in sets:
            cmd += ["--set", s]
        proc = subprocess.run(cmd, env=env, cwd=checkout, capture_output=True, text=True)
        lines.append(f"{_digest(_normalized(proc.stdout, out_dir, checkout))}  {label}.stdout")
        lines.append(f"{_digest(_normalized(proc.stderr, out_dir, checkout))}  {label}.stderr")
        print(f"{label}: exit {proc.returncode}", file=sys.stderr)
    for root, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                lines.append(f"{_digest(fh.read())}  {os.path.relpath(path, out_dir)}")
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
