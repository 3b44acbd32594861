"""Command-line entry point.

    flog <subcommand> --config <file> [--seed N] [--out DIR]

Subcommands run individual stages standalone (synth, parse, partition,
account) or the whole pipeline (train, evaluate).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import sys
from pathlib import Path

from . import datasets, drain, model as model_ops, partition
from .config import load_config
from .metrics import CSV_HEADER, csv_row, evaluate
from .pipeline import (
    StageError,
    _stage,
    build_all_windows,
    init_model,
    privacy_ledger,
    read_corpus,
    run_pipeline,
)

log = logging.getLogger(__name__)


def _out_dir(cfg) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args, cfg) -> int:
    if cfg.dataset.format != "synthetic":
        raise ValueError(f"flog synth needs dataset.format synthetic, got {cfg.dataset.format!r}")
    out = _out_dir(cfg)
    entries = datasets.generate_synthetic(cfg.dataset.synthetic)
    path = out / "synthetic.log"
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(datasets.encode_line(e) + "\n")
    print(f"wrote {len(entries)} lines to {path}")
    return 0


def cmd_parse(args, cfg) -> int:
    out = _out_dir(cfg)
    corpus = read_corpus(cfg)
    drain.write_template_table(corpus.parser.export_templates(), out / "templates.tsv")
    print(f"{corpus.n_templates} templates -> {out / 'templates.tsv'}")
    return 0


def cmd_partition(args, cfg) -> int:
    out = _out_dir(cfg)
    corpus = read_corpus(cfg)
    assignment = partition.round_robin_assign(
        list(corpus.records_by_node), cfg.federated.k_clients
    )
    partition.write_assignment_dump(assignment, out / "assignment.tsv")
    print(f"{len(assignment)} nodes over {cfg.federated.k_clients} clients "
          f"-> {out / 'assignment.tsv'}")
    return 0


def cmd_train(args, cfg) -> int:
    metrics = run_pipeline(cfg, args.seed)
    for m in metrics:
        print(csv_row(m))
    return 0


def _last_round(path: Path) -> tuple[int, int, float] | None:
    """Round, participants and privacy spend of the last row of a rounds.csv, if any."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return None
    last = rows[-1]
    try:
        return int(last["round"]), int(last["participants"]), float(last["eps_spent"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: last row does not parse: {exc}") from None


def cmd_evaluate(args, cfg) -> int:
    out = Path(cfg.output_dir)  # read only: evaluate writes nothing there
    ckpt = out / "model.ckpt"
    if not ckpt.exists():
        print(f"no checkpoint at {ckpt}; run `flog train` first", file=sys.stderr)
        return 1
    # The checkpoint's round, participants and privacy spend are the run's last row.
    rounds_csv = out / "rounds.csv"
    if not rounds_csv.exists():
        print(f"no rounds.csv at {rounds_csv}; run `flog train` first", file=sys.stderr)
        return 1
    # Both files are checked before the corpus is read; the checkpoint's
    # shapes only once the parsed templates give the vocabulary size.
    with _stage("load"):
        last = _last_round(rounds_csv)
        model_ops.read_checkpoint(ckpt)
    if last is None:
        print(f"{rounds_csv} has no completed round", file=sys.stderr)
        return 1
    corpus = read_corpus(cfg)
    with _stage("window"):
        _, test_windows = build_all_windows(corpus, cfg)
    state = init_model(cfg, corpus.n_templates, args.seed)
    with _stage("load"):
        state.load(ckpt)
    scores = model_ops.score(
        state, model_ops.pack_keys([w.key_ids for w in test_windows], state.config)
    )
    labels = [w.label for w in test_windows]
    round_idx, participants, eps_spent = last
    print(CSV_HEADER)
    print(csv_row(evaluate(
        scores, labels, round_idx=round_idx, participants=participants, eps_spent=eps_spent,
    )))
    return 0


def cmd_account(args, cfg) -> int:
    ledger = privacy_ledger(cfg)
    for _ in range(cfg.federated.rounds):
        ledger.update()
    print(ledger.dump(), end="")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "parse": cmd_parse,
    "partition": cmd_partition,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "account": cmd_account,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flog",
        description="Differentially private federated log anomaly detection simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=0, help="root random seed")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("-v", "--verbose", action="store_true")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config)
        if args.out:
            cfg = dataclasses.replace(cfg, output_dir=args.out)
        return args.fn(args, cfg)
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
