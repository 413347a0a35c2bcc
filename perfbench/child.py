"""Child processes the benchmark starts besides the plain CLI.

    child.py setup SET...              import fdacovert.cli, load the config and
                                       print run facts as JSON
    child.py trace FILE CLI-ARGS...    run the CLI with spans recorded into FILE
    child.py threads SEED SET...       one RandomFDA map on the default thread
                                       count and on one thread, as JSON

SET is a ``section.key=value`` override, as passed to ``--set``.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def setup(sets):
    from fdacovert.cli import load_config

    return load_config(None, sets)


def facts(sets):
    setup(sets)
    import numpy
    import scipy
    from fdacovert.fieldmap import resolve_threads

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    print(json.dumps({
        "nproc": os.cpu_count(),
        "threads": resolve_threads(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "simd": [name for name, on in features.items() if on],
    }))


def trace(path, cli_args):
    import spans
    from fdacovert import cli

    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(path)


def threads(seed, sets):
    import warnings

    import numpy as np
    from fdacovert.fieldmap import build_plan, evaluate_grid, resolve_threads

    warnings.simplefilter("ignore")
    cfg = setup(sets)
    g, bob, grid = cfg.geometry(), cfg.bob(), cfg.grid()
    plan = build_plan("RandomFDA", g, bob, cfg.f_delta_hz, seed=seed)
    t0 = time.perf_counter()
    multi = evaluate_grid(g, plan, bob, grid)
    t1 = time.perf_counter()
    single = evaluate_grid(g, plan, bob, grid, n_threads=1)
    t2 = time.perf_counter()
    print(json.dumps({
        "threads": resolve_threads(),
        "cell_antenna_evals": grid.n_cells * g.n_antennas,
        "multi_s": t1 - t0,
        "single_s": t2 - t1,
        "identical": bool(np.array_equal(multi.values, single.values, equal_nan=True)),
    }))


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        facts(rest)
    elif mode == "trace":
        return trace(rest[0], rest[1:])
    elif mode == "threads":
        threads(int(rest[0]), rest[1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
