"""Decoder for supercomputer log lines plus a synthetic generator.

Thunderbird and BGL lines share one layout: nine header fields, the
first a label where a hyphen means "not an alert" (anything else marks
the line anomalous) and the fourth the node id, then the message. So one
decoder reads both and takes no format name. The synthetic generator
emits Thunderbird-layout lines so the same decoder round-trips them,
with anomalies injected as short bursts of dedicated rare templates so
that desk-scale detection is learnable by construction.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bounds import bounded, check


class RawEntry(NamedTuple):
    """One decoded line.

    Built per line with `tuple.__new__(RawEntry, fields)`, a C-level call;
    the NamedTuple's own constructor is a Python-level one.
    """

    label_field: str
    epoch_seconds: int
    node_id: str
    message: str

    @property
    def is_anomalous(self) -> bool:
        return self.label_field != "-"


class LineParseError(ValueError):
    """Recoverable per-line decode failure."""


# Both formats put 9 header tokens, the node id fourth, before the message.
# Thunderbird: label epoch date node month day time node2 component message...
# BGL:        label epoch date node fulltime node2 type component severity message...
_N_HEADER = 9
_NODE_INDEX = 3


def decode_line(line: str) -> RawEntry:
    """Decode one line: 9 header fields, then the message.

    The line is split once: the message is the rest of the line after the
    ninth header field, trailing whitespace dropped and internal whitespace
    kept as it is, so Drain's split of the message gives the same tokens.
    """
    parts = line.split(None, _N_HEADER)
    if len(parts) <= _N_HEADER:
        raise LineParseError(f"expected more than {_N_HEADER} tokens, got {len(parts)}")
    try:
        epoch = int(parts[1])
    except ValueError:
        raise LineParseError(f"bad epoch field {parts[1]!r}") from None
    if not 0 <= epoch < 1 << 63:
        raise LineParseError(f"epoch {epoch} outside [0, 2**63)")
    if not (parts[1].isascii() and parts[1].isdigit()):  # int() reads +1, 1_0 and ١ too
        raise LineParseError(f"bad epoch field {parts[1]!r}")
    return tuple.__new__(RawEntry, (parts[0], epoch, parts[_NODE_INDEX], parts[_N_HEADER].rstrip()))


def encode_line(entry: RawEntry) -> str:
    """Render an entry in Thunderbird layout (filler date fields derived from epoch)."""
    tm = time.gmtime(entry.epoch_seconds)
    date = time.strftime("%Y.%m.%d", tm)
    month = time.strftime("%b", tm)
    clock = time.strftime("%H:%M:%S", tm)
    return (
        f"{entry.label_field} {entry.epoch_seconds} {date} {entry.node_id} "
        f"{month} {tm.tm_mday} {clock} {entry.node_id}/{entry.node_id} "
        f"synth: {entry.message}"
    )


@dataclass(frozen=True)
class SyntheticSpec:
    n_templates: int = bounded(ge=1)
    n_nodes: int = bounded(ge=1)
    n_lines: int = bounded(ge=1)
    anomaly_rate: float = bounded(gt=0, lt=1)
    anomaly_template_ids: frozenset[int] = field(default_factory=frozenset)
    seed: int = bounded(0, ge=0)
    mean_burst_length: int = bounded(12, ge=1)
    mean_gap_seconds: float = bounded(4.0, gt=0)

    def __post_init__(self) -> None:
        check(self)
        if not self.anomaly_template_ids:
            raise ValueError("anomaly_template_ids must be non-empty")
        if any(t < 0 or t >= self.n_templates for t in self.anomaly_template_ids):
            raise ValueError("anomaly_template_ids must lie in [0, n_templates)")
        if len(self.anomaly_template_ids) == self.n_templates:
            raise ValueError("anomaly_template_ids must leave at least one template normal")


def _template_tag(template_id: int) -> str:
    # Digit-free tag so numeric masking cannot collapse distinct templates.
    letters = "abcdefghijklmnopqrstuvwxyz"
    tag = ""
    i = template_id
    while True:
        tag = letters[i % 26] + tag
        i //= 26
        if i == 0:
            return tag


def transition_cdf(trans: np.ndarray) -> list[list[float]]:
    """Each row's normalised CDF, as rng.choice(n, p=row) builds it on every call.

    bisect_right(cdf[i], rng.random()) is then rng.choice(n, p=trans[i]),
    draw for draw: the same uniform, the same search, the same index.
    """
    cdf = trans.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return cdf.tolist()


# Lines rendered from one slice of the columns: enough to amortise the
# slicing, few enough that the slice's Python ints take little memory.
_RENDER_ROWS = 4096


class SyntheticCorpus:
    """Deterministic synthetic corpus, time-sorted across nodes.

    Normal traffic follows a fixed per-node Markov chain over the normal
    templates. Anomalies arrive as dense bursts of mean_burst_length lines
    drawn from anomaly_template_ids with compressed inter-arrival gaps
    (failure-cascade style), scheduled deterministically per node with a
    phase stagger so the line-level anomaly fraction approximates
    anomaly_rate at any corpus size.

    Each line is kept as ints in compact columns (epoch, message head,
    numeric parameter, node), and only iteration renders it into a
    RawEntry, one at a time, so no message string outlives its consumer.
    max_samples keeps a prefix of the time-sorted corpus, and len() is the
    number of lines kept.
    """

    def __init__(self, spec: SyntheticSpec, max_samples: int | None = None) -> None:
        rng = np.random.default_rng(spec.seed)
        normal_ids = [t for t in range(spec.n_templates) if t not in spec.anomaly_template_ids]
        anomaly_ids = sorted(spec.anomaly_template_ids)

        # Row-stochastic transition matrix over normal templates, fixed per run.
        n = len(normal_ids)
        cdf_rows = transition_cdf(rng.dirichlet(np.ones(n), size=n))
        # Bursts of exactly mean_burst_length anomaly lines recur every
        # burst_every lines of a node, staggered across nodes, so the realized
        # anomaly fraction tracks anomaly_rate tightly at any corpus size.
        # burst_every > mean_burst_length, so a burst ends before the next starts.
        burst_every = max(
            spec.mean_burst_length + 1,
            int(round(spec.mean_burst_length / spec.anomaly_rate)),
        )
        # Message heads and node names are fixed per run; each message adds one
        # variable field, so Drain sees a parameter position. Head h is
        # (label, text before the field, text after it); the anomaly heads
        # come after the normal ones.
        self._heads = [
            ("-", f"daemon proc-{_template_tag(t)} reported event code ", " status ok")
            for t in normal_ids
        ] + [
            ("FAILURE", f"daemon proc-{_template_tag(t)} fatal fault detected unit ", "")
            for t in anomaly_ids
        ]
        self._node_names = [f"node{node:03d}" for node in range(spec.n_nodes)]

        node_clock = [1_131_566_461.0] * spec.n_nodes
        node_state = [int(rng.integers(n)) for _ in range(spec.n_nodes)]
        # array.append costs a fifth of a numpy item assignment and keeps
        # each value as a C int, not a Python object.
        epochs, heads, params = array("q"), array("i"), array("i")
        for line_idx in range(spec.n_lines):
            k, node = divmod(line_idx, spec.n_nodes)  # the node's k-th line
            phase = node * burst_every // spec.n_nodes
            anomalous = k >= phase and (k - phase) % burst_every < spec.mean_burst_length
            # Failure cascades pour in quickly: bursts are dense in time.
            gap = spec.mean_gap_seconds / 20.0 if anomalous else spec.mean_gap_seconds
            node_clock[node] += rng.exponential(gap)
            if anomalous:
                head = n + int(rng.integers(len(anomaly_ids)))
            else:
                head = node_state[node] = bisect_right(cdf_rows[node_state[node]], rng.random())
            epochs.append(int(node_clock[node]))
            heads.append(head)
            params.append(int(rng.integers(1000, 100000)))
        # A stable sort, as list.sort is: equal epochs keep generation order.
        order = np.argsort(epochs, kind="stable")[:max_samples]
        self._columns = (
            *(np.asarray(column)[order] for column in (epochs, heads, params)),
            (order % spec.n_nodes).astype(np.int32),
        )

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[RawEntry]:
        heads, node_names, new = self._heads, self._node_names, tuple.__new__
        for a in range(0, len(self), _RENDER_ROWS):
            for epoch, h, param, node in zip(*(c[a:a + _RENDER_ROWS].tolist()
                                              for c in self._columns)):
                label, before, after = heads[h]
                yield new(RawEntry, (label, epoch, node_names[node], f"{before}{param}{after}"))


def read_log_file(path, max_samples: int | None = None, counts: dict[str, int] | None = None):
    """Yield the RawEntry of each line; blank and malformed lines are skipped.

    max_samples is a prefix cut in file order. A `counts` dict, if given,
    keeps the number of lines read so far ("lines") and of malformed lines
    skipped among them ("malformed").
    """
    counts = {} if counts is None else counts
    counts.update(lines=0, malformed=0)
    n_ok = 0
    # A line ends at LF (or CRLF); a lone CR stays inside its line. A byte-order
    # mark opening the file is dropped, so it cannot become the first label.
    with open(path, "r", encoding="utf-8-sig", errors="replace", newline="\n") as fh:
        for line in fh:
            if max_samples is not None and n_ok >= max_samples:
                break
            counts["lines"] += 1
            if not line.strip():
                continue
            try:
                entry = decode_line(line)
            except LineParseError:
                counts["malformed"] += 1
                continue
            n_ok += 1
            yield entry

