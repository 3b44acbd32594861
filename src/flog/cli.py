"""Command-line entry point.

    flog <subcommand> --config <file> [--out DIR]    (train also takes --seed N)

Subcommands run individual stages standalone (synth, parse, partition,
account) or the whole pipeline (train, evaluate).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import datasets, model as model_ops
from .config import load_config
from .metrics import csv_row, csv_text, evaluate, read_last_round
from .pipeline import (
    StageError,
    _stage,
    assign_clients,
    init_model,
    node_windows,
    output_dir,
    privacy_ledger,
    read_corpus,
    run_pipeline,
)
from .windows import WindowColumns

log = logging.getLogger(__name__)


def cmd_synth(args, cfg) -> int:
    """Write the synthetic corpus to synthetic.log."""
    if cfg.dataset.format != "synthetic":
        raise ValueError(f"flog synth needs dataset.format synthetic, got {cfg.dataset.format!r}")
    out = output_dir(cfg)
    corpus = datasets.SyntheticCorpus(cfg.dataset.synthetic)
    path = out / "synthetic.log"
    with open(path, "w", encoding="utf-8") as fh:
        for e in corpus:  # one line rendered at a time
            fh.write(datasets.encode_line(e) + "\n")
    print(f"wrote {len(corpus)} lines to {path}")
    return 0


def cmd_parse(args, cfg) -> int:
    """Ingest and parse the dataset; write templates.tsv."""
    out = output_dir(cfg)
    corpus = read_corpus(cfg, out)
    print(f"{corpus.n_templates} templates -> {out / 'templates.tsv'}")
    return 0


def cmd_partition(args, cfg) -> int:
    """Assign nodes to clients; write assignment.tsv."""
    out = output_dir(cfg)
    assignment = assign_clients(list(read_corpus(cfg).records_by_node), cfg, out)
    print(f"{len(assignment)} nodes over {cfg.federated.k_clients} clients "
          f"-> {out / 'assignment.tsv'}")
    return 0


def cmd_train(args, cfg) -> int:
    """Run the whole pipeline; write every artifact."""
    metrics = run_pipeline(cfg, args.seed)
    for m in metrics:
        print(csv_row(m))
    return 0


def cmd_evaluate(args, cfg) -> int:
    """Re-score the checkpoint's rounds.csv row on the test windows."""
    out = Path(cfg.output_dir)  # read only: evaluate writes nothing there
    ckpt = out / "model.ckpt"
    if not ckpt.exists():
        print(f"no checkpoint at {ckpt}; run `flog train` first", file=sys.stderr)
        return 1
    rounds_csv = out / "rounds.csv"
    if not rounds_csv.exists():
        print(f"no rounds.csv at {rounds_csv}; run `flog train` first", file=sys.stderr)
        return 1
    # Both files are checked before the corpus is read; the checkpoint's
    # shapes only once the parsed templates give the vocabulary size.
    with _stage("load"):
        last = read_last_round(rounds_csv)
        model_ops.read_checkpoint(ckpt)
    if last is None:
        print(f"{rounds_csv} has no completed round", file=sys.stderr)
        return 1
    corpus = read_corpus(cfg)
    with _stage("window"):
        test = WindowColumns()  # packed as the trainer's test set is
        for _, _, node_test in node_windows(corpus, cfg):
            test.extend(node_test)
    state = init_model(cfg, corpus.n_templates)  # the load overwrites every tensor
    with _stage("load"):
        state.load(ckpt)
    with _stage("evaluate"):
        scores = model_ops.score(state, test.pack(state.config))
        row = dataclasses.replace(last, **evaluate(scores, list(test.labels)))
    print(csv_text([row]), end="")
    return 0


def cmd_account(args, cfg) -> int:
    """Print the privacy ledger of the configured rounds."""
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
        if name == "train":
            p.add_argument("--seed", type=int, default=0, help="root random seed")
        if name != "account":  # account reads and writes no output directory
            p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("-v", "--verbose", action="store_true")
        p.set_defaults(fn=fn, out=None)
    args = parser.parse_args(argv)
    if args.out == "":  # an unset shell variable would otherwise write to output_dir
        parser.error("argument --out: must name a directory, got ''")
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
    except OSError as exc:  # every read is in load_config or a stage: this is a write
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
