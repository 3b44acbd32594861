"""End-to-end orchestration: ingest, parse, window, partition, train, evaluate.

Stage outputs are written under the output directory with fixed names
(templates.tsv, assignment.tsv, rounds.csv, ledger.txt, model.ckpt) and a
re-run with the same seed reproduces them.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import datasets, drain, federated, model as model_ops, partition, windows
from .accountant import PrivacyLedger
from .config import RunConfig
from .metrics import RoundMetrics, csv_text
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
    records_by_node: dict[str, windows.NodeRecords]  # first-seen node order

    @property
    def n_templates(self) -> int:
        return len(self.parser.templates)


def load_entries(cfg: RunConfig) -> datasets.SyntheticCorpus | list[datasets.RawEntry]:
    ds = cfg.dataset
    if ds.format == "synthetic":
        # The synthetic corpus is seeded by its own spec so the dataset stays
        # fixed while --seed varies the training randomness. Its lines stay
        # compact columns until Drain reads them.
        return datasets.SyntheticCorpus(ds.synthetic, ds.max_samples)
    counts: dict[str, int] = {}
    entries = list(datasets.read_log_file(ds.path, ds.max_samples, counts))
    log.info("read %d lines from %s; skipped %d malformed",
             counts["lines"], ds.path, counts["malformed"])
    return entries


def parse_corpus(entries: Iterable[datasets.RawEntry]) -> ParsedCorpus:
    """Drain over the messages in file order, then each node's records by time.

    Each parsed line is appended to its node's columns (`windows.NodeRecords`),
    so no object is kept per line. A node whose lines arrived out of order is
    stable-sorted by timestamp, so records with equal timestamps keep their
    file order.
    """
    parser = drain.DrainParser()
    parse_message = parser.parse_message
    records_by_node: dict[str, windows.NodeRecords] = {}
    out_of_order: set[str] = set()  # nodes with a record older than the one before it
    for label, epoch, node, message in entries:
        event_id = parse_message(message)
        if event_id is None:
            continue
        records = records_by_node.get(node)
        if records is None:
            records = records_by_node[node] = windows.NodeRecords(node)
        elif epoch < records.epochs[-1]:
            out_of_order.add(node)
        records.epochs.append(epoch)
        records.anomalous.append(label != "-")  # RawEntry.is_anomalous
        records.event_ids.append(event_id)
    for node in out_of_order:
        records_by_node[node].sort()
    log.info("sorted the records of %d of %d nodes by timestamp",
             len(out_of_order), len(records_by_node))
    return ParsedCorpus(parser=parser, records_by_node=records_by_node)


def node_windows(corpus: ParsedCorpus, cfg: RunConfig):
    """Each node's windows split chronologically: (node, train, test), in node order.

    A node's last int(n * test_fraction) windows are its test windows. The
    list `windows.build_windows` returns for a node is dropped before the
    next node's is built. Raises ValueError after the last node when that
    left no test window at all, since a run could then not be evaluated.
    """
    fraction = cfg.evaluation.test_fraction
    n_test = most = 0
    for node, records in corpus.records_by_node.items():
        ws = windows.build_windows(records, cfg.window)
        cut = len(ws) - int(len(ws) * fraction)
        n_test += len(ws) - cut
        most = max(most, len(ws))
        train, test = ws[:cut], ws[cut:]
        del ws
        yield node, train, test
    if not n_test:
        raise ValueError(
            f"no test windows: evaluation.test_fraction {fraction} of "
            f"each node's windows rounds down to 0, and no node has more than {most}"
        )


def model_config(cfg: RunConfig, n_templates: int) -> ModelConfig:
    """The model shape for a run: its vocabulary is the parsed templates."""
    return ModelConfig(
        vocab_size=n_templates + model_ops.N_RESERVED,
        max_sequence_length=cfg.window.max_sequence_length,
        **asdict(cfg.model),
    )


def init_model(cfg: RunConfig, n_templates: int) -> model_ops.ModelState:
    """The run's initial model, seeded from the run seed, `cfg.federated.seed`."""
    return model_ops.init(model_config(cfg, n_templates), [cfg.federated.seed, 10])


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


def read_corpus(cfg: RunConfig, out: Path | None = None) -> ParsedCorpus:
    """The configured dataset ingested and parsed, as stages 'ingest' and 'parse'.

    Given an output directory, stage 'parse' writes its templates.tsv there.
    """
    with _stage("ingest"):
        entries = load_entries(cfg)
    log.info("ingested %d entries", len(entries))
    with _stage("parse"):
        corpus = parse_corpus(entries)
        if out is not None:
            drain.write_template_table(corpus.parser.export_templates(), out / "templates.tsv")
    log.info("parsed %d templates across %d nodes",
             corpus.n_templates, len(corpus.records_by_node))
    return corpus


def output_dir(cfg: RunConfig) -> Path:
    """The run's output directory, created if it does not exist."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def assign_clients(nodes: list[str], cfg: RunConfig, out: Path) -> dict[str, int]:
    """Stage 'partition': each node's client, also written as assignment.tsv."""
    with _stage("partition"):
        assignment = partition.round_robin_assign(nodes, cfg.federated.k_clients)
        partition.write_assignment_dump(assignment, out / "assignment.tsv")
    return assignment


def _trainer(cfg: RunConfig, out: Path) -> federated.FederatedTrainer:
    """The run's trainer, over the parsed, windowed and partitioned corpus.

    The parsed corpus is freed once the windows are cut into flat columns,
    and the columns once the trainer's packings are built from them.
    """
    corpus = read_corpus(cfg, out)
    n_templates, nodes = corpus.n_templates, list(corpus.records_by_node)
    with _stage("window"):
        # The assignment depends on the node order alone, so windows go to
        # their clients as they are cut; assignment.tsv waits for the cut.
        # Without nodes there is nothing to assign, and the cut fails for
        # want of test windows.
        assignment = partition.round_robin_assign(nodes, cfg.federated.k_clients) if nodes else {}
        # Windows go to columns node by node, so no window list spans two nodes.
        clients = [windows.WindowColumns() for _ in range(cfg.federated.k_clients)]
        test = windows.WindowColumns()
        for node, node_train, node_test in node_windows(corpus, cfg):
            clients[assignment[node]].extend(node_train)
            test.extend(node_test)
    log.info("built %d train / %d test windows", sum(map(len, clients)), len(test))
    del corpus  # its record columns
    assign_clients(nodes, cfg, out)
    with _stage("train"):
        state = init_model(cfg, n_templates)
        # Each client's columns go as soon as it is packed, so that the next
        # client's packing can reuse their memory.
        for k in range(len(clients)):
            clients[k] = federated.LocalData.from_columns(clients[k], k, state.config)
        return federated.FederatedTrainer(
            state,
            clients,
            test.pack(state.config),
            test.labels,
            cfg.federated,
            privacy_ledger(cfg),
        )


def run_pipeline(cfg: RunConfig, seed: int) -> list[RoundMetrics]:
    cfg = replace(cfg, federated=replace(cfg.federated, seed=seed))  # checks the seed first
    out = output_dir(cfg)
    trainer = _trainer(cfg, out)
    with _stage("train"):
        metrics = trainer.run()
    (out / "rounds.csv").write_text(csv_text(metrics), encoding="utf-8")
    (out / "ledger.txt").write_text(trainer.ledger.dump(), encoding="utf-8")
    trainer.state.save(out / "model.ckpt")
    return metrics
