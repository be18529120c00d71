"""Statistics and output checks shared by the benchmark's workloads."""

from __future__ import annotations

import hashlib
import math


def tail_percentile(values, q: float = 90.0, min_beyond: int = 10):
    """Nearest-rank q-th percentile, or None when fewer than min_beyond
    samples lie above it (the percentile is then not yet measured)."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for v in ordered if v > value)
    return value if beyond >= min_beyond else None


def report_digest(paths) -> str:
    """sha256 over the bytes of the given report files, in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def nonfinite_cells(rows) -> list[tuple[int, int]]:
    """(row, column) of every numeric report cell that is not finite.
    None and strings are not values and pass."""
    bad = []
    for r, row in enumerate(rows):
        for c, value in enumerate(row):
            if value is None or isinstance(value, str):
                continue
            if not math.isfinite(float(value)):
                bad.append((r, c))
    return bad
