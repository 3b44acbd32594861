"""Overlapping time windows over one node's parsed records.

A window covers [start, start + window_seconds) on a grid anchored at the
node's first timestamp. Windows with too few records are discarded; a
window is anomalous iff any member record is anomalous. Sequences are
truncated to the most recent max_sequence_length keys for the model.

Empty stretches of the grid are jumped over, so the cost grows with the
records and the windows that hold one, not with the length of a node's span.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .bounds import bounded, check
from .drain import LogRecord


@dataclass(frozen=True)
class WindowConfig:
    window_seconds: int = bounded(ge=1)
    step_seconds: int = bounded(ge=1)
    min_logs_per_window: int = bounded(1, ge=1)
    max_sequence_length: int = bounded(128, ge=1)

    def __post_init__(self) -> None:
        check(self)
        if self.step_seconds > self.window_seconds:
            raise ValueError("step_seconds must not exceed window_seconds")


class WindowSequence(NamedTuple):
    node_id: str
    start_time: int
    key_ids: tuple[int, ...]
    label: int


def build_windows(records: list[LogRecord], cfg: WindowConfig) -> list[WindowSequence]:
    """All qualifying windows for one node's time-ordered records."""
    if not records:
        return []
    # One column per field; the event id column is sliced into each window's keys.
    times, node_ids, anomalous, event_ids, _ = zip(*records)
    node_id = node_ids[0]
    if node_ids.count(node_id) != len(node_ids):
        raise ValueError("build_windows expects records from a single node")
    if any(t1 > t2 for t1, t2 in zip(times, times[1:])):
        raise ValueError("records must be sorted by timestamp")

    W, S = cfg.window_seconds, cfg.step_seconds
    n_anomalous = [0, *accumulate(anomalous)]
    t0, t_last = times[0], times[-1]
    out: list[WindowSequence] = []
    start = t0
    while start <= t_last:
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_left(times, start + W, lo)
        if lo == hi:
            # Empty window: jump to the first grid window that holds times[lo],
            # ceil((times[lo] - t0 - W + 1) / S) steps from t0.
            start = t0 - (t0 + W - 1 - times[lo]) // S * S
            continue
        if hi - lo >= cfg.min_logs_per_window:
            keys = event_ids[max(lo, hi - cfg.max_sequence_length):hi]
            label = int(n_anomalous[hi] > n_anomalous[lo])
            out.append(WindowSequence(node_id, start, keys, label))
        start += S
    return out
