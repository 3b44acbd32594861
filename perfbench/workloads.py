"""Workload definitions: the configs each workload runs and its seeded inputs.

Every input is a pure function of the benchmark seed, so the same seed
writes the same bytes. Generation is untimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from flog import datasets

WORKLOADS = ("synthetic-train", "tbird-ingest")


@dataclass(frozen=True)
class Prepared:
    config_path: Path
    config: dict
    n_lines: int  # input log lines the run reads, malformed ones included
    n_malformed: int


# -- tbird-ingest corpus ----------------------------------------------------

# Normal templates share a few leading token pairs, so Drain's depth-4 tree
# (routing by length, then two leading tokens) leaves several candidates in
# each leaf. Anomaly templates lead with their own pair and stay separable.
_NORMAL_LEADS = (
    ("kernel:", "sched"), ("kernel:", "mem"), ("pbs_mom:", "task"), ("sshd:", "session"),
)
_ANOMALY_LEADS = (("kernel:", "panic"), ("ib_sm:", "fatal"))
_WORDS = tuple(
    a + b for a in ("al", "be", "co", "di", "en", "fa", "gu", "ho", "ix", "ju",
                    "ka", "lo", "mu", "ne", "op", "pu", "qi", "ra", "su", "tu")
    for b in ("mar", "vex", "lon", "dit", "rup", "sel", "gan", "fot", "wek", "zil",
              "bra", "cid", "hom", "pex", "tuv", "yor", "nak", "qua", "rim", "sof")
)


@dataclass(frozen=True)
class TbirdSpec:
    n_templates: int = 320
    n_anomaly_templates: int = 16
    n_dense_nodes: int = 24
    dense_lines: int = 1200
    dense_span_s: int = 5400
    n_sparse_nodes: int = 130
    sparse_records: tuple[int, int] = (3, 12)
    sparse_span_days: tuple[int, int] = (7, 42)
    bursts_per_node: int = 4
    burst_lines: tuple[int, int] = (12, 30)
    malformed_share: float = 0.01


def _make_templates(rng: np.random.Generator, n: int, leads) -> list[list[str]]:
    """Token lists with '#' marking variable (digit-bearing) positions.

    Every (lead pair, length) leaf of Drain's tree gets the same number of
    templates, 9..16 tokens long, with 1 variable below 11 tokens and 2
    above. Templates of one leaf share no body word at any position, so a
    message matches another template of its leaf on under 40% of positions
    and Drain keeps them apart: the template set does not depend on the seed.
    """
    leaves: dict[tuple, list[int]] = {}
    for i in range(n):
        leaves.setdefault((i % len(leads), (i // len(leads)) % 8), []).append(i)
    out: list[list[str]] = [[] for _ in range(n)]
    for (lead, k), members in leaves.items():
        length = 9 + k
        words = rng.choice(_WORDS, size=(len(members), length - 2), replace=False)
        n_var = 1 if length <= 10 else 2
        for i, body in zip(members, words):
            body = [str(w) for w in body]
            for pos in rng.choice(length - 2, size=n_var, replace=False):
                body[pos] = "#"
            out[i] = [*leads[lead], *body]
    return out


def _render(template: list[str], rng: np.random.Generator) -> str:
    return " ".join(
        str(int(rng.integers(0, 1 << 20))) if t == "#" else t for t in template
    )


def tbird_lines(seed: int, spec: TbirdSpec = TbirdSpec()) -> tuple[list[str], int]:
    """Thunderbird-layout lines, time-ordered per node; returns (lines, n_malformed)."""
    rng = np.random.default_rng([seed, 0x7B1D])
    normal = _make_templates(rng, spec.n_templates, _NORMAL_LEADS)
    anomaly = _make_templates(rng, spec.n_anomaly_templates, _ANOMALY_LEADS)
    base = 1_131_566_400 + int(rng.integers(0, 86_400))

    records: list[tuple[int, int, str, str]] = []  # (epoch, node idx, label, message)
    # Dense nodes: Zipf-weighted normal traffic, with anomaly bursts spread
    # over the node's span so the chronological split puts both classes in
    # train and test.
    zipf = 1.0 / np.arange(1, spec.n_templates + 1)
    zipf /= zipf.sum()
    for node in range(spec.n_dense_nodes):
        popularity = zipf[rng.permutation(spec.n_templates)]
        start = base + int(rng.integers(0, 600))
        times = np.sort(rng.integers(0, spec.dense_span_s, size=spec.dense_lines))
        for t, tid in zip(times, rng.choice(spec.n_templates, size=spec.dense_lines, p=popularity)):
            records.append((start + int(t), node, "-", _render(normal[tid], rng)))
        slot = spec.dense_span_s // spec.bursts_per_node
        for b in range(spec.bursts_per_node):
            t_burst = start + b * slot + int(rng.integers(0, slot - 60))
            for _ in range(int(rng.integers(*spec.burst_lines, endpoint=True))):
                tid = int(rng.integers(spec.n_anomaly_templates))
                records.append(
                    (t_burst + int(rng.integers(0, 30)), node, "FATAL", _render(anomaly[tid], rng))
                )
    # Sparse nodes: a handful of records scattered over weeks. Spans and
    # record counts are spread evenly over their ranges and only their order
    # is random, so the windowing grid has the same size for every seed.
    lo, hi = spec.sparse_span_days
    days = lo + (np.arange(spec.n_sparse_nodes) * (hi - lo)) // max(1, spec.n_sparse_nodes - 1)
    lo, hi = spec.sparse_records
    counts = lo + np.arange(spec.n_sparse_nodes) % (hi - lo + 1)
    for i, (span_days, n) in enumerate(zip(rng.permutation(days), rng.permutation(counts))):
        node = spec.n_dense_nodes + i
        span = int(span_days) * 86_400
        times = np.sort(rng.integers(0, span, size=int(n)))
        times[0], times[-1] = 0, span
        for t in times:
            tid = int(rng.integers(spec.n_templates))
            records.append((base + int(t), node, "-", _render(normal[tid], rng)))

    records.sort(key=lambda r: (r[0], r[1]))
    node_ids = _node_ids(rng, spec.n_dense_nodes + spec.n_sparse_nodes)
    lines = [
        datasets.encode_line(
            datasets.RawEntry(label_field=label, epoch_seconds=epoch,
                              node_id=node_ids[node], message=msg)
        )
        for epoch, node, label, msg in records
    ]
    # Malformed lines: truncated headers and non-numeric epochs.
    n_bad = int(round(spec.malformed_share * len(lines)))
    for k, pos in enumerate(sorted(rng.choice(len(lines), size=n_bad, replace=False), reverse=True)):
        good = lines[pos].split()
        bad = " ".join(good[:5]) if k % 2 else " ".join([good[0], "E" + good[1], *good[2:]])
        lines.insert(int(pos), bad)
    return lines, n_bad


def _node_ids(rng: np.random.Generator, n: int) -> list[str]:
    numbers = rng.choice(10_000, size=n, replace=False)
    return [f"{('an', 'bn', 'cn', 'dn')[i % 4]}{int(k)}" for i, k in enumerate(numbers)]


# -- configs ----------------------------------------------------------------


def _shipped(root: Path, name: str) -> dict:
    return yaml.safe_load((root / "configs" / name).read_text(encoding="utf-8"))


def _write_config(doc: dict, work: Path) -> Path:
    path = work / "config.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return path


def prepare(workload: str, seed: int, root: Path, work: Path) -> Prepared:
    """Write the workload's inputs and config under `work`."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "synthetic-train":
        # configs/synthetic.yaml as shipped; its corpus seed stays fixed and
        # the benchmark seed becomes the training seed.
        doc = _shipped(root, "synthetic.yaml")
        return Prepared(_write_config(doc, work), doc, doc["dataset"]["synthetic"]["n_lines"], 0)

    if workload == "tbird-ingest":
        lines, n_bad = tbird_lines(seed)
        log_path = work / "tbird.log"
        log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        shipped = _shipped(root, "thunderbird.yaml")
        # Every client trains, so the training work does not depend on the
        # seed's participation draw.
        fed = dict(shipped["federated"], rounds=1, local_epochs=1, participation_rate=1.0)
        doc = {
            "dataset": {"format": "thunderbird", "path": str(log_path.resolve())},
            "window": shipped["window"],
            "model": shipped["model"],
            "federated": fed,
            "privacy": shipped["privacy"],
        }
        return Prepared(_write_config(doc, work), doc, len(lines), n_bad)

    raise ValueError(f"unknown workload {workload!r}")
