"""Reading the field CSVs that heatmap writes back into arrays, for the tests."""

import numpy as np


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
