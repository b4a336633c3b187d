"""Arithmetic of the benchmark: tail percentiles, span self time, shares.

Pure functions over plain numbers and span tuples, so that the tests can
feed them synthetic inputs.  A span is the tuple

    (pid, sid, parent_sid, name, t0, t1, attrs)

where sid is unique within its process, parent_sid is None for a root span,
t0 and t1 are ``time.perf_counter()`` readings (CLOCK_MONOTONIC on Linux,
so comparable across processes of one machine) and attrs is a dict or None.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Iterable, Sequence

# The tail is reported at a percentile only if at least this many samples lie
# beyond it; fewer and the percentile is decided by a handful of outliers.
MIN_BEYOND = 10


def tail_rank(n: int, p: float) -> tuple[int, int]:
    """Nearest-rank position (1-based) of the p-th percentile of n samples,
    and the number of samples ranked beyond it."""
    if n < 1:
        raise ValueError("no samples")
    k = min(n, max(1, math.ceil(p / 100.0 * n)))
    return k, n - k


def min_samples_for(p: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose p-th percentile has `beyond` samples past it."""
    n = 1
    while tail_rank(n, p)[1] < beyond:
        n += 1
    return n


def tail_percentile(samples: Sequence[float], p: float = 99.0) -> tuple[float, int]:
    """(value, samples beyond it) for the p-th percentile of the samples.

    When fewer than MIN_BEYOND samples would lie beyond the p-th percentile
    the rule has nothing honest to report at p, so the maximum is returned
    with 0 samples beyond; callers state the sample count alongside.
    """
    s = sorted(samples)
    k, beyond = tail_rank(len(s), p)
    if beyond < MIN_BEYOND:
        return s[-1], 0
    return s[k - 1], beyond


def failed_share(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed = {failed} outside 0..{attempted}")
    return failed / attempted


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: Iterable[tuple]) -> dict[tuple[int, int], float]:
    """Self time of every span, keyed by (pid, sid): its duration minus the
    part of that interval its child spans cover."""
    spans = list(spans)
    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for pid, _sid, parent, _name, t0, t1, _attrs in spans:
        if parent is not None:
            children[(pid, parent)].append((t0, t1))
    return {
        (pid, sid): (t1 - t0) - _covered(children.get((pid, sid), []), t0, t1)
        for pid, sid, _parent, _name, t0, t1, _attrs in spans
    }


def children_index(spans: Iterable[tuple]) -> dict[tuple[int, int], list[tuple]]:
    """Child spans of each span, keyed by the parent's (pid, sid)."""
    kids: dict[tuple[int, int], list[tuple]] = defaultdict(list)
    for sp in spans:
        if sp[2] is not None:
            kids[(sp[0], sp[2])].append(sp)
    return kids


def descendants(kids: dict[tuple[int, int], list[tuple]], root: tuple[int, int]) -> list[tuple]:
    """Spans below `root` (a (pid, sid) key), given children_index(spans)."""
    out, todo = [], [root]
    while todo:
        for sp in kids.get(todo.pop(), []):
            out.append(sp)
            todo.append((sp[0], sp[1]))
    return out
