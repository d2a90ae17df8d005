"""Order statistics and failure ratios used by the benchmark's reports."""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        q1 = median = q3 = float(values[0])
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def pass_rate(ops: Iterable[Tuple[str, int, float]]) -> float:
    """Windows per second of one pass over every kind of operation.

    ``ops`` holds ``(kind, windows, seconds)`` per operation.  The rate is
    the windows of one operation of each kind over the sum of each
    kind's median seconds, so a run that ends partway through a cycle of
    kinds weighs no kind more than another.
    """
    windows: Dict[str, int] = {}
    seconds: Dict[str, list] = {}
    for kind, n, s in ops:
        if windows.setdefault(kind, n) != n:
            raise ValueError(f"operations of kind {kind!r} differ in size")
        seconds.setdefault(kind, []).append(s)
    if not windows:
        raise ValueError("rate of no operations")
    return sum(windows.values()) / sum(statistics.median(v) for v in seconds.values())


def failed_ratio(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones; no attempts is itself an error."""
    if attempted < 1:
        raise ValueError("no operations were attempted")
    return failed / attempted
