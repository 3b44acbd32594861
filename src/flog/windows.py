"""Overlapping time windows over one node's parsed records.

A window covers [start, start + window_seconds) on a grid anchored at the
node's first timestamp. Windows with too few records are discarded; a
window is anomalous iff any member record is anomalous. Sequences are
truncated to the most recent max_sequence_length keys for the model.

A node's records are held as columns (`NodeRecords`), and windows are cut
straight from them. With t0 the first timestamp, W the window and S the
step, window k holds the record at t iff

    ceil((t - W + 1 - t0) / S) <= k <= floor((t - t0) / S).

Both bounds rise with t, so the windows that hold a record form runs of
consecutive k, found from the bounds of consecutive records. They are
enumerated in O(records + windows), whatever W/S is and however long and
sparse the node's span; each window's records come from a binary search
over the bounds. Each node's windows are appended, as they are cut, to
flat `WindowColumns`, which are packed once into a `model.Packed` batch.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import model as model_ops
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


_KEY_IDS = attrgetter("key_ids")
_LABEL = attrgetter("label")


class WindowColumns:
    """Windows appended as flat columns, with no object kept per window.

    `key_ids` holds the windows' event ids end to end as C ints, which
    Drain's template ids fit, `lengths` each window's key count (int64) and
    `labels` its 0/1 label, one byte: 4 B a key and 9 B a window. `extend`
    appends windows in C loops. len() is the number of windows.
    """

    __slots__ = ("key_ids", "lengths", "labels")

    def __init__(self) -> None:
        self.key_ids = array("i")
        self.lengths = array("q")
        self.labels = bytearray()

    def __len__(self) -> int:
        return len(self.lengths)

    def extend(self, windows: list[WindowSequence]) -> None:
        """Append `windows`, in order."""
        self.key_ids.extend(chain.from_iterable(map(_KEY_IDS, windows)))
        self.lengths.extend(map(len, map(_KEY_IDS, windows)))
        self.labels.extend(map(_LABEL, windows))

    def pack(self, config: model_ops.ModelConfig) -> model_ops.Packed:
        """The windows as one `Packed` batch, mapped and checked as `model.pack_keys` does."""
        return model_ops.pack_key_columns(
            np.frombuffer(self.key_ids, np.intc), np.array(self.lengths, np.int64), config
        )


class NodeRecords:
    """One node's parsed lines as columns, ~17 B a line, with no object per line.

    `epochs` is int64, `anomalous` one byte per line (1 if anomalous), and
    `event_ids` a list of the parser's own event id ints, so the key tuples
    of the windows share them. It has len() and iterates as `LogRecord`s.
    """

    __slots__ = ("node_id", "epochs", "anomalous", "event_ids")

    def __init__(self, node_id: str, epochs: Iterable[int] = (),
                 anomalous: Iterable[bool] = (), event_ids: Iterable[int] = ()) -> None:
        self.node_id = node_id
        self.epochs = array("q", epochs)
        self.anomalous = bytearray(anomalous)
        self.event_ids = list(event_ids)

    @classmethod
    def from_records(cls, records: Iterable[LogRecord]) -> NodeRecords:
        """The columns of one node's records, in their order."""
        times, node_ids, anomalous, event_ids, _ = zip(*records)
        if node_ids.count(node_ids[0]) != len(node_ids):
            raise ValueError("build_windows expects records from a single node")
        return cls(node_ids[0], times, anomalous, event_ids)

    def __len__(self) -> int:
        return len(self.epochs)

    def __iter__(self) -> Iterator[LogRecord]:
        return map(partial(tuple.__new__, LogRecord),
                   zip(self.epochs, repeat(self.node_id), map(bool, self.anomalous),
                       self.event_ids, repeat(0)))

    def sort(self) -> None:
        """Stable-sort the columns by timestamp: equal timestamps keep their order."""
        epochs = np.frombuffer(self.epochs, np.int64)
        order = np.argsort(epochs, kind="stable")
        self.epochs = array("q", epochs[order].tobytes())
        self.anomalous = bytearray(np.frombuffer(self.anomalous, np.uint8)[order].tobytes())
        self.event_ids = list(map(self.event_ids.__getitem__, order.tolist()))


def build_windows(records: NodeRecords | list[LogRecord],
                  cfg: WindowConfig) -> list[WindowSequence]:
    """All qualifying windows for one node's time-ordered records.

    A list of `LogRecord`s is turned into columns first.
    """
    if not len(records):
        return []
    if not isinstance(records, NodeRecords):
        records = NodeRecords.from_records(records)
    t = np.frombuffer(records.epochs, np.int64)
    if (t[1:] < t[:-1]).any():
        raise ValueError("records must be sorted by timestamp")

    t0 = int(t[0])
    rel = t - t0
    # A window or step longer than the span acts as one of span + 1 does;
    # the cap keeps the arithmetic below within int64.
    span = int(rel[-1])
    W, S = min(cfg.window_seconds, span + 1), min(cfg.step_seconds, span + 1)
    # The first and last window holding each record; `first` is <= 0 for
    # every record in window 0, as for the first record.
    first = (rel - W) // S + 1
    last = rel // S
    # Runs of consecutive windows: a record starts one when its first window
    # comes after the run so far, which ends at the record before's last.
    new_run = first[1:] > last[:-1]
    run_first = np.concatenate(([0], first[1:][new_run]))
    run_len = np.concatenate((last[:-1][new_run], last[-1:])) - run_first + 1
    ks = np.arange(run_len.sum()) + np.repeat(run_first - (np.cumsum(run_len) - run_len), run_len)
    # Window k holds records [lo, hi): those whose last window is >= k and
    # whose first is <= k.
    lo = np.searchsorted(last, ks, "left")
    hi = np.searchsorted(first, ks, "right")
    keep = hi - lo >= cfg.min_logs_per_window
    ks, lo, hi = ks[keep], lo[keep], hi[keep]
    n_anomalous = np.zeros(len(t) + 1, np.int64)
    np.cumsum(np.frombuffer(records.anomalous, np.uint8), out=n_anomalous[1:])
    labels = (n_anomalous[hi] > n_anomalous[lo]).astype(np.int64)
    keys = map(tuple(records.event_ids).__getitem__,
               map(slice, np.maximum(lo, hi - cfg.max_sequence_length).tolist(), hi.tolist()))
    return list(map(partial(tuple.__new__, WindowSequence),
                    zip(repeat(records.node_id), (t0 + ks * S).tolist(), keys, labels.tolist())))
