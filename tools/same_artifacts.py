#!/usr/bin/env python3
"""Check that the working tree writes the same artifacts as a git revision.

    python tools/same_artifacts.py BASE

Extracts BASE with `git archive` into a temporary directory, writes the
`tbird-ingest` inputs once (with `perfbench/workloads.prepare`, seed 4),
and runs the command line, `flog.cli.main`, in both trees, each command in
a fresh interpreter. `train --seed N` runs on nine (config, seed) pairs:

- `configs/synthetic.yaml` and the `tbird-ingest` config, at seeds 4 and 9;
- at seed 4, five configs that reach paths the shipped ones do not: the
  `tbird-ingest` model at 2 rounds x 2 epochs with q = 0.5; the same with
  two layers and q = 0.6; synthetic at 12,000 lines with two layers,
  two heads of width 4, LoRA dropout 0.2, 3 accumulation steps and q = 0.7;
  and synthetic over 12 clients with q = 0.5, so that its 8 nodes leave
  four clients without a window: one sampled trains on nothing and gets a
  zero row, which `federated.aggregate` skips; and synthetic at noise
  multiplier 0 for 2 rounds, whose ledger reads `eps_rdp=inf` and
  `alpha_star=nan`.

On the two base configs at seed 4 it also runs `parse`, `partition` and
`account`, and `evaluate` on train's output directory.

It runs `parse` in both trees on a log of hex ids that it writes
itself (seeded, more than 2 x `drain.MEMO_LIMIT` lines): its messages'
digit shapes rarely repeat, so Drain drops its shape memo part way
through, and the comparison covers that path too. Their first tokens
are drawn from more than `drain.MAX_CHILDREN` names, so Drain routes
the later ones through a node's shared overflow child.

Last it runs `parse` and `train --seed 4` in both trees on a messy copy
of the `tbird-ingest` log: a seeded third of its nodes have some lines
moved earlier in the file, so `pipeline.parse_corpus` re-sorts those
nodes by time.

Both trees read the same inputs and configs, written from this tree.
It compares the `templates.tsv` that `parse` writes, the `assignment.tsv`
that `partition` writes, the standard output of `account`, and of `train`
and `evaluate` without `wall_seconds` (evaluate copies it from the run's
last row), and the artifacts that `train` writes: `templates.tsv`,
`assignment.tsv`, `ledger.txt`, `model.ckpt` byte for byte, and
`rounds.csv` without its `wall_seconds` column. It prints one line per
run and output and exits 1 on any difference, if the hex-id log routes
no more than `drain.MAX_CHILDREN` tokens below one tree node, or if the
messy log has no node out of time order.

Below each `DIFFERENT` line it says what differs: for `model.ckpt`, each
tensor whose values differ and its largest absolute difference, as
`flog.model.read_checkpoint` reads both files; for any other output, the
first line that differs, from both trees, truncated.
"""

from __future__ import annotations

import argparse
import copy
import io
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ("templates.tsv", "assignment.tsv", "ledger.txt", "model.ckpt", "rounds.csv")

# One command line in a fresh interpreter: argv is (src dir, flog arguments...).
CLI = """
import sys
sys.path.insert(0, sys.argv[1])
from flog.cli import main
sys.exit(main(sys.argv[2:]))
"""


def extract(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")


def configs(work: Path) -> list[tuple[str, Path, int]]:
    """(name, config path, seed) of every run."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    import workloads

    synthetic = yaml.safe_load((ROOT / "configs" / "synthetic.yaml").read_text(encoding="utf-8"))
    tbird = workloads.prepare("tbird-ingest", 4, ROOT, work / "tbird").config

    def variant(doc: dict, **sections) -> dict:
        doc = copy.deepcopy(doc)
        for section, keys in sections.items():
            doc[section].update(keys)
        return doc

    docs = {
        "synthetic": synthetic,
        "tbird-ingest": tbird,
        "tbird-2x2-q0.5": variant(
            tbird, federated=dict(rounds=2, local_epochs=2, participation_rate=0.5)),
        "tbird-2x2-L2-q0.6": variant(
            tbird, model=dict(n_layers=2),
            federated=dict(rounds=2, local_epochs=2, participation_rate=0.6)),
        "synthetic-12k-L2": variant(
            synthetic, dataset=dict(max_samples=12000),
            model=dict(n_layers=2, n_heads=2, head_dim=4, lora_dropout=0.2),
            federated=dict(grad_accum_steps=3, participation_rate=0.7)),
        "synthetic-k12-q0.5": variant(
            synthetic, federated=dict(k_clients=12, participation_rate=0.5)),
        "synthetic-sigma0": variant(synthetic, federated=dict(noise_multiplier=0.0, rounds=2)),
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = work / f"{name}.yaml"
        paths[name].write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    runs = [(name, seed) for name in ("synthetic", "tbird-ingest") for seed in (4, 9)]
    runs += [(name, 4) for name in ("tbird-2x2-q0.5", "tbird-2x2-L2-q0.6", "synthetic-12k-L2",
                                    "synthetic-k12-q0.5", "synthetic-sigma0")]
    return [(name, paths[name], seed) for name, seed in runs]


def hex_id_config(base: Path) -> tuple[Path, int]:
    """The config at `base` made to read a seeded log of hex-id messages.

    Nearly every message has a digit shape of its own, so Drain drops its
    shape memo part way through and parses the rest without it. The first
    token is one of `drain.MAX_CHILDREN` + 50 digit-free daemon names, so
    the routing node of each token count overflows. Returns the config, and
    the most distinct tokens the log routes below one tree node.
    """
    from flog import datasets, drain

    rng = random.Random(4)
    forms = ("{c} job {a} {v} on {b} after {n} ms", "{c} session {b} {v} for user {u}",
             "{c} mapped {a} to {a} size {n}")
    # Daemon k's name spells k's decimal digits as the letters a-j.
    daemons = ["".join(chr(ord("a") + int(d)) for d in str(k)) + "d:"
               for k in range(drain.MAX_CHILDREN + 50)]
    words = dict(c=daemons, v=("opened", "closed", "moved"), u=("root", "news", "cyrus", "admin"))
    below: dict[tuple[str, ...], set[str]] = {}  # a tree node's route -> the tokens below it
    log = base.parent / "hex-ids.log"
    with open(log, "w", encoding="utf-8") as fh:
        for i in range(2 * drain.MEMO_LIMIT + 4096):
            message = rng.choice(forms).format(
                a=f"{rng.getrandbits(64):016x}", b=f"{rng.getrandbits(32):08x}",
                n=rng.randrange(10 ** 6), **{k: rng.choice(v) for k, v in words.items()})
            entry = datasets.RawEntry("-", 1_131_600_000 + i // 8, f"hn{i % 37}", message)
            fh.write(datasets.encode_line(entry) + "\n")
            tokens = drain.preprocess_line(message)
            for level in range(min(drain.TREE_DEPTH - 2, len(tokens))):
                below.setdefault((str(len(tokens)), *tokens[:level]), set()).add(tokens[level])
    doc = yaml.safe_load(base.read_text(encoding="utf-8"))
    doc["dataset"] = {"format": "thunderbird", "path": str(log)}
    config = base.parent / "hex-ids.yaml"
    config.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return config, max(map(len, below.values()))


def messy_config(base: Path) -> tuple[Path, int, int]:
    """The config at `base` made to read its log with some lines moved earlier.

    A seeded third of the nodes each have a tenth of their lines (at least
    one) moved to a random earlier place in the file. Malformed lines stay
    where they are. Returns the config, and how many nodes are then out of
    time order out of how many.
    """
    from flog import datasets

    rng = random.Random(4)
    doc = yaml.safe_load(base.read_text(encoding="utf-8"))
    lines = Path(doc["dataset"]["path"]).read_text(encoding="utf-8").splitlines(keepends=True)
    entries = {}  # line index -> its entry, for the well-formed lines
    for i, line in enumerate(lines):
        try:
            entries[i] = datasets.decode_line(line)
        except datasets.LineParseError:
            pass
    by_node: dict[str, list[int]] = {}
    for i, entry in entries.items():
        by_node.setdefault(entry.node_id, []).append(i)
    # A line's place is its sort key; a moved line takes a random earlier one.
    place = [float(i) for i in range(len(lines))]
    for node in rng.sample(sorted(by_node), len(by_node) // 3):
        for i in rng.sample(by_node[node], max(1, len(by_node[node]) // 10)):
            place[i] = rng.uniform(0, i)
    order = sorted(range(len(lines)), key=place.__getitem__)
    log = base.parent / "messy.log"
    log.write_text("".join(map(lines.__getitem__, order)), encoding="utf-8")
    epochs: dict[str, list[int]] = {}
    for i in order:
        if i in entries:
            epochs.setdefault(entries[i].node_id, []).append(entries[i].epoch_seconds)
    n_messy = sum(times != sorted(times) for times in epochs.values())
    doc["dataset"]["path"] = str(log)
    config = base.parent / "messy.yaml"
    config.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return config, n_messy, len(epochs)


def run(tree: Path, *args) -> tuple[str, str | None]:
    """Runs flog's command line from `tree`: its stdout, and None or a failure's error line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", CLI, str(tree / "src"), *map(str, args)],
                          capture_output=True, text=True, env=env)
    if proc.returncode == 0:
        return proc.stdout, None
    return proc.stdout, (proc.stderr.strip().splitlines() or [f"exit status {proc.returncode}"])[-1]


def cli_outputs(tree: Path, config: Path, out: Path, commands, seed: int
                ) -> tuple[dict[str, bytes | None], list[str]]:
    """What `commands` write and print from `tree`, by name; and the failed ones.

    `parse` and `partition` print their output paths, so only the file each
    writes is compared; of `train`, its standard output and every artifact.
    A failed command's output is None.
    """
    args = {"parse": ("--out", out / "parse"), "partition": ("--out", out / "partition"),
            "account": (), "train": ("--seed", seed, "--out", out / "train"),
            "evaluate": ("--out", out / "train")}
    outputs, failed = {}, []
    for command in commands:
        stdout, error = run(tree, command, "--config", config, *args[command])
        if error is not None:
            failed.append(f"{command}: {error}")
        # rounds.csv's rows, whose last column is wall_seconds: train prints
        # every row, and evaluate the last one re-scored.
        if command in ("train", "evaluate"):
            stdout = "".join(line.rsplit(",", 1)[0] + "\n" for line in stdout.splitlines())
        if command not in ("parse", "partition"):
            outputs[f"{command} stdout"] = stdout.encode() if error is None else None
    if "parse" in commands:
        outputs["parse templates.tsv"] = content(out / "parse" / "templates.tsv")
    if "partition" in commands:
        outputs["partition assignment.tsv"] = content(out / "partition" / "assignment.tsv")
    if "train" in commands:
        outputs.update((f"train {a}", content(out / "train" / a)) for a in ARTIFACTS)
    return outputs, failed


def shorten(line: str | None, width: int = 100) -> str:
    if line is None:
        return "(no line)"
    return repr(line if len(line) <= width else line[:width] + "...")


def first_difference(base: bytes, here: bytes) -> list[str]:
    """The first line where two text outputs differ: its number and both lines."""
    pairs = zip_longest(base.decode(errors="replace").splitlines(),
                        here.decode(errors="replace").splitlines())
    for number, (a, b) in enumerate(pairs, 1):
        if a != b:
            return [f"line {number}", f"  base {shorten(a)}", f"  here {shorten(b)}"]
    return ["the same lines, other line endings"]


def tensor_differences(base: Path, here: Path) -> list[str]:
    """Each tensor whose values differ between two checkpoints, and by how much."""
    from flog.model import read_checkpoint

    try:
        a, b = read_checkpoint(base), read_checkpoint(here)
    except ValueError as exc:
        return [f"unreadable: {exc}"]
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            lines.append(f"{name} only in {'here' if name in b else 'base'}")
        elif a[name].shape != b[name].shape:
            lines.append(f"{name} shape {a[name].shape} in base, {b[name].shape} here")
        elif a[name].tobytes() != b[name].tobytes():
            lines.append(f"{name} max |diff| {np.max(np.abs(a[name] - b[name])):.6g}")
    return lines or ["every tensor the same; the manifests differ"]


def same_cli(label: str, trees: dict[str, Path], config: Path, out: Path, commands,
             seed: int = 4) -> bool:
    """Runs the command line in both trees; prints and returns whether the outputs match.

    Below a DIFFERENT line, indented lines say what differs.
    """
    outputs = {}
    for side, tree in trees.items():
        outputs[side], failed = cli_outputs(tree, config, out / side, commands, seed)
        for step in failed:
            print(f"{label}: {side} {step}")
    same = True
    for key, b in outputs["here"].items():
        a = outputs["base"][key]
        verdict = "identical" if a is not None and a == b else "DIFFERENT"
        same &= verdict == "identical"
        print(f"{label}: {key} {verdict}")
        if verdict == "identical":
            continue
        if a is None or b is None:
            details = ["no output in " + " or ".join(
                side for side, output in (("base", a), ("here", b)) if output is None)]
        elif key == "train model.ckpt":
            details = tensor_differences(*(out / side / "train" / "model.ckpt"
                                           for side in ("base", "here")))
        else:
            details = first_difference(a, b)
        for detail in details:
            print(f"    {detail}")
    return same


def content(path: Path) -> bytes | None:
    if not path.exists():
        return None
    if path.name != "rounds.csv":
        return path.read_bytes()
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    drop = rows[0].index("wall_seconds")
    return "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows).encode()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", metavar="BASE", help="git revision to compare the working tree with")
    args = ap.parse_args()
    same = True
    with tempfile.TemporaryDirectory(prefix="same_artifacts_") as tmp:
        tmp = Path(tmp)
        extract(args.base, tmp / "base")
        trees = {"base": tmp / "base", "here": ROOT}
        runs = configs(tmp / "inputs")
        for name, config, seed in runs:
            commands = ("train",)
            if seed == 4 and name in ("synthetic", "tbird-ingest"):
                commands = ("parse", "partition", "account", "train", "evaluate")
            same &= same_cli(f"{name} seed {seed}", trees, config,
                             tmp / "runs" / f"{name}.seed{seed}", commands, seed)
        tbird = next(path for name, path, _ in runs if name == "tbird-ingest")
        from flog import drain

        config, widest = hex_id_config(tbird)
        print(f"hex-id log: {widest} distinct tokens below one tree node, "
              f"{drain.MAX_CHILDREN} before the overflow child")
        same &= widest > drain.MAX_CHILDREN
        same &= same_cli("hex-ids cli", trees, config, tmp / "hex", ("parse",))
        config, n_messy, n_nodes = messy_config(tbird)
        print(f"messy log: {n_messy} of {n_nodes} nodes out of time order")
        same &= n_messy > 0
        same &= same_cli("messy cli", trees, config, tmp / "messy", ("parse", "train"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
