"""Decoders for supercomputer log line formats plus a synthetic generator.

Both Thunderbird and BGL lines start with a label field where a hyphen
means "not an alert"; anything else marks the line anomalous. The
synthetic generator emits Thunderbird-layout lines so the same decoder
round-trips them, with anomalies injected as short bursts of dedicated
rare templates so that desk-scale detection is learnable by construction.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class RawEntry(NamedTuple):
    """One decoded line. A tuple, so building one per line costs one allocation."""

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


def decode_line(line: str, fmt: str) -> RawEntry:
    """Decode one line: 9 header fields, then the message.

    The line is split once: the message is the rest of the line after the
    ninth header field, trailing whitespace dropped and internal whitespace
    kept as it is, so Drain's split of the message gives the same tokens.
    """
    if fmt not in ("thunderbird", "bgl"):
        raise ValueError(f"unknown format: {fmt!r}")
    parts = line.split(None, _N_HEADER)
    if len(parts) <= _N_HEADER:
        raise LineParseError(f"expected more than {_N_HEADER} tokens, got {len(parts)}")
    try:
        epoch = int(parts[1])
    except ValueError:
        raise LineParseError(f"bad epoch field {parts[1]!r}") from None
    if epoch < 0:
        raise LineParseError(f"negative epoch {epoch}")
    return RawEntry(parts[0], epoch, parts[_NODE_INDEX], parts[_N_HEADER].rstrip())


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
    n_templates: int
    n_nodes: int
    n_lines: int
    anomaly_rate: float
    anomaly_template_ids: frozenset[int] = field(default_factory=frozenset)
    seed: int = 0
    mean_burst_length: int = 12
    mean_gap_seconds: float = 4.0

    def __post_init__(self) -> None:
        if self.n_templates < 1 or self.n_nodes < 1 or self.n_lines < 1:
            raise ValueError("n_templates, n_nodes, n_lines must be positive")
        if not (0.0 < self.anomaly_rate < 1.0):
            raise ValueError("anomaly_rate must be in (0, 1)")
        if not self.anomaly_template_ids:
            raise ValueError("anomaly_template_ids must be non-empty")
        if any(t < 0 or t >= self.n_templates for t in self.anomaly_template_ids):
            raise ValueError("anomaly_template_ids must lie in [0, n_templates)")
        if self.mean_burst_length < 1:
            raise ValueError("mean_burst_length must be >= 1")


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


def generate_synthetic(spec: SyntheticSpec) -> list[RawEntry]:
    """Deterministic synthetic corpus, time-sorted across nodes.

    Normal traffic follows a fixed per-node Markov chain over the normal
    templates. Anomalies arrive as dense bursts of mean_burst_length lines
    drawn from anomaly_template_ids with compressed inter-arrival gaps
    (failure-cascade style), scheduled deterministically per node with a
    phase stagger so the line-level anomaly fraction approximates
    anomaly_rate at any corpus size.
    """
    rng = np.random.default_rng(spec.seed)
    normal_ids = [t for t in range(spec.n_templates) if t not in spec.anomaly_template_ids]
    if not normal_ids:
        raise ValueError("at least one normal template required")
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
    # variable field, so Drain sees a parameter position.
    normal_heads = [f"daemon proc-{_template_tag(t)} reported event code " for t in normal_ids]
    anomaly_heads = [f"daemon proc-{_template_tag(t)} fatal fault detected unit " for t in anomaly_ids]
    node_names = [f"node{node:03d}" for node in range(spec.n_nodes)]

    node_clock = [1_131_566_461.0] * spec.n_nodes
    node_state = [int(rng.integers(n)) for _ in range(spec.n_nodes)]
    entries: list[RawEntry] = []
    for line_idx in range(spec.n_lines):
        k, node = divmod(line_idx, spec.n_nodes)  # the node's k-th line
        phase = node * burst_every // spec.n_nodes
        anomalous = k >= phase and (k - phase) % burst_every < spec.mean_burst_length
        # Failure cascades pour in quickly: bursts are dense in time.
        gap = spec.mean_gap_seconds / 20.0 if anomalous else spec.mean_gap_seconds
        node_clock[node] += rng.exponential(gap)
        if anomalous:
            head = anomaly_heads[int(rng.integers(len(anomaly_ids)))]
            label = "FAILURE"
            message = f"{head}{int(rng.integers(1000, 100000))}"
        else:
            state = bisect_right(cdf_rows[node_state[node]], rng.random())
            node_state[node] = state
            label = "-"
            message = f"{normal_heads[state]}{int(rng.integers(1000, 100000))} status ok"
        entries.append(RawEntry(label, int(node_clock[node]), node_names[node], message))
    entries.sort(key=lambda e: e.epoch_seconds)
    return entries


def read_log_file(path, fmt: str, max_samples: int | None = None,
                  counts: dict[str, int] | None = None):
    """Yield the RawEntry of each line; blank and malformed lines are skipped.

    max_samples is a prefix cut in file order. A `counts` dict, if given,
    keeps the number of lines read so far ("lines") and of malformed lines
    skipped among them ("malformed").
    """
    counts = {} if counts is None else counts
    counts.update(lines=0, malformed=0)
    n_ok = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if max_samples is not None and n_ok >= max_samples:
                break
            counts["lines"] += 1
            if not line.strip():
                continue
            try:
                entry = decode_line(line, fmt)
            except LineParseError:
                counts["malformed"] += 1
                continue
            n_ok += 1
            yield entry

