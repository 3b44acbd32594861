"""End-to-end orchestration: ingest, parse, window, partition, train, evaluate.

Stage outputs are written under the output directory with fixed names
(templates.tsv, assignment.tsv, rounds.csv, ledger.txt, model.ckpt) and a
re-run with the same seed reproduces them.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from operator import attrgetter
from pathlib import Path

from . import datasets, drain, federated, model as model_ops, partition, windows
from .accountant import PrivacyLedger
from .config import RunConfig
from .metrics import CSV_HEADER, RoundMetrics, csv_row
from .model import ModelConfig

log = logging.getLogger(__name__)

ARTIFACTS = ("templates.tsv", "assignment.tsv", "rounds.csv", "ledger.txt", "model.ckpt")


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@dataclass
class ParsedCorpus:
    parser: drain.DrainParser
    records_by_node: dict[str, list[drain.LogRecord]]  # first-seen node order

    @property
    def n_templates(self) -> int:
        return len(self.parser.templates)


def load_entries(cfg: RunConfig) -> list[datasets.RawEntry]:
    ds = cfg.dataset
    if ds.format == "synthetic":
        # The synthetic corpus is seeded by its own spec so the dataset stays
        # fixed while --seed varies the training randomness.
        entries = datasets.generate_synthetic(ds.synthetic)
        if ds.max_samples is not None:
            entries = entries[: ds.max_samples]
    else:
        counts: dict[str, int] = {}
        entries = list(datasets.read_log_file(ds.path, ds.format, ds.max_samples, counts))
        log.info("read %d lines from %s; skipped %d malformed",
                 counts["lines"], ds.path, counts["malformed"])
    return entries


def parse_corpus(entries: list[datasets.RawEntry], cfg: RunConfig) -> ParsedCorpus:
    """Drain over the messages in file order, then each node's records by time.

    A node whose lines arrived out of order is stable-sorted by timestamp,
    so records with equal timestamps keep their file order.
    """
    parser = drain.DrainParser(cfg.parser)
    records_by_node: dict[str, list[drain.LogRecord]] = {}
    for entry in entries:
        event_id = parser.parse_message(entry.message)
        if event_id is None:
            continue
        record = drain.LogRecord(entry.epoch_seconds, entry.node_id, entry.is_anomalous, event_id)
        records_by_node.setdefault(entry.node_id, []).append(record)
    n_sorted = 0
    for records in records_by_node.values():
        if any(a.timestamp > b.timestamp for a, b in zip(records, records[1:])):
            records.sort(key=attrgetter("timestamp"))
            n_sorted += 1
    log.info("sorted the records of %d of %d nodes by timestamp",
             n_sorted, len(records_by_node))
    return ParsedCorpus(parser=parser, records_by_node=records_by_node)


def build_all_windows(corpus: ParsedCorpus, cfg: RunConfig):
    """Per-node windows split chronologically into train and test sets.

    Each node's last int(n * test_fraction) windows are its test windows.
    Raises ValueError when that leaves no test window at all, since a run
    could then not be evaluated.
    """
    train: list[windows.WindowSequence] = []
    test: list[windows.WindowSequence] = []
    most = 0
    for node, records in corpus.records_by_node.items():
        ws = windows.build_windows(records, cfg.window)
        n_test = int(len(ws) * cfg.evaluation.test_fraction)
        cut = len(ws) - n_test
        train.extend(ws[:cut])
        test.extend(ws[cut:])
        most = max(most, len(ws))
    if not test:
        raise ValueError(
            f"no test windows: evaluation.test_fraction {cfg.evaluation.test_fraction} of "
            f"each node's windows rounds down to 0, and no node has more than {most}"
        )
    return train, test


def model_config(cfg: RunConfig, n_templates: int) -> ModelConfig:
    """The model shape for a run: its vocabulary is the parsed templates."""
    return ModelConfig(
        vocab_size=n_templates + model_ops.N_RESERVED,
        max_sequence_length=cfg.window.max_sequence_length,
        **asdict(cfg.model),
    )


def init_model(cfg: RunConfig, n_templates: int, seed: int) -> model_ops.ModelState:
    """The run's initial model, seeded from the run seed."""
    return model_ops.init(model_config(cfg, n_templates), [seed, 10])


def privacy_ledger(cfg: RunConfig) -> PrivacyLedger:
    """An empty privacy ledger for the run's noise, delta and round count."""
    return PrivacyLedger(
        target_epsilon=cfg.privacy.target_epsilon,
        delta=cfg.privacy.delta,
        noise_multiplier=cfg.federated.noise_multiplier,
        total_rounds=cfg.federated.rounds,
    )


@contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as a StageError for `name`."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


def read_corpus(cfg: RunConfig) -> ParsedCorpus:
    """The configured dataset ingested and parsed, as stages 'ingest' and 'parse'."""
    with _stage("ingest"):
        entries = load_entries(cfg)
    log.info("ingested %d entries", len(entries))
    with _stage("parse"):
        corpus = parse_corpus(entries, cfg)
    log.info("parsed %d templates across %d nodes",
             corpus.n_templates, len(corpus.records_by_node))
    return corpus


def run_pipeline(cfg: RunConfig, seed: int) -> list[RoundMetrics]:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    corpus = read_corpus(cfg)
    with _stage("parse"):
        drain.write_template_table(corpus.parser.export_templates(), out / "templates.tsv")

    with _stage("window"):
        train_windows, test_windows = build_all_windows(corpus, cfg)
    log.info("built %d train / %d test windows", len(train_windows), len(test_windows))

    with _stage("partition"):
        nodes = list(corpus.records_by_node)
        assignment = partition.round_robin_assign(nodes, cfg.federated.k_clients)
        clients = partition.materialize(train_windows, assignment, cfg.federated.k_clients)
        partition.write_assignment_dump(assignment, out / "assignment.tsv")

    with _stage("train"):
        state = init_model(cfg, corpus.n_templates, seed)
        ledger = privacy_ledger(cfg)
        trainer = federated.FederatedTrainer(
            state,
            clients,
            [w.key_ids for w in test_windows],
            [w.label for w in test_windows],
            replace(cfg.federated, seed=seed),
            ledger,
        )
        metrics = trainer.run()

    with open(out / "rounds.csv", "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for m in metrics:
            fh.write(csv_row(m) + "\n")
    (out / "ledger.txt").write_text(ledger.dump(), encoding="utf-8")
    state.save(out / "model.ckpt")
    return metrics
