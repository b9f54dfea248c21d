"""Arrival-time sampling from RPS timelines.

Traces describe arrival *rates*; the discrete-event runtime needs
arrival *times*.  We sample an inhomogeneous Poisson process cell by
cell: the count inside each grid cell is Poisson with the cell's
``rps * step`` mean and arrival instants are uniform within the cell.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.workloads.trace import Trace


def sample_arrivals(
    trace: Trace, rng: np.random.Generator, max_requests: int = 5_000_000
) -> np.ndarray:
    """Sorted arrival times (seconds) drawn from the trace.

    Args:
        trace: the RPS timeline.
        rng: the random stream (caller seeds it for determinism).
        max_requests: safety bound against runaway trace scaling.

    Returns:
        A sorted float array of arrival times in ``[0, duration)``.
    """
    means = trace.rps * trace.step_s
    counts = rng.poisson(means)
    total = int(counts.sum())
    if total > max_requests:
        raise ValueError(
            f"trace would generate {total} requests (> {max_requests});"
            " scale it down or raise max_requests"
        )
    arrivals = np.empty(total)
    cursor = 0
    for cell, count in enumerate(counts):
        if count == 0:
            continue
        start = cell * trace.step_s
        arrivals[cursor : cursor + count] = start + rng.random(count) * trace.step_s
        cursor += count
    arrivals.sort()
    return arrivals


def sample_arrivals_window(
    trace: Trace,
    rng: np.random.Generator,
    start_s: float,
    end_s: float,
    max_requests: int = 5_000_000,
) -> np.ndarray:
    """Sorted arrival times within ``[start_s, end_s)`` from the trace.

    The windowed counterpart of :func:`sample_arrivals`: only the cells
    overlapping the window are touched, and cells straddling a window
    boundary get an independent Poisson draw over each sub-interval --
    statistically equivalent to one eager draw (Poisson superposition),
    though not bit-identical with it.
    """
    start = max(0.0, float(start_s))
    end = min(float(end_s), trace.duration_s)
    if end <= start:
        return np.empty(0)
    lo = int(start / trace.step_s)
    hi = min(int(np.ceil(end / trace.step_s)), trace.rps.size)
    lo = min(lo, hi)
    cell_starts = np.arange(lo, hi) * trace.step_s
    seg_lo = np.maximum(cell_starts, start)
    lengths = np.clip(
        np.minimum(cell_starts + trace.step_s, end) - seg_lo, 0.0, None
    )
    counts = rng.poisson(trace.rps[lo:hi] * lengths)
    total = int(counts.sum())
    if total > max_requests:
        raise ValueError(
            f"window [{start}, {end}) would generate {total} requests"
            f" (> {max_requests}); shrink the window or scale the trace"
        )
    arrivals = np.empty(total)
    cursor = 0
    for cell, count in enumerate(counts):
        if count == 0:
            continue
        arrivals[cursor : cursor + count] = (
            seg_lo[cell] + rng.random(count) * lengths[cell]
        )
        cursor += count
    arrivals.sort()
    return arrivals


def merge_arrival_streams(
    streams: Dict[str, np.ndarray],
) -> List[Tuple[float, str]]:
    """Merge per-function arrival arrays into one sorted event list.

    Returns (time, function_name) tuples sorted by time -- the input
    the discrete-event runtime consumes.
    """
    merged: List[Tuple[float, str]] = []
    for name, times in streams.items():
        merged.extend((float(t), name) for t in times)
    merged.sort(key=lambda item: item[0])
    return merged


def thin_arrivals(arrivals: Iterable[float], keep_fraction: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Randomly keep a fraction of arrivals (for load scaling studies)."""
    if not 0.0 <= keep_fraction <= 1.0:
        raise ValueError("keep_fraction must lie in [0, 1]")
    times = np.asarray(list(arrivals), dtype=float)
    mask = rng.random(times.size) < keep_fraction
    return times[mask]
