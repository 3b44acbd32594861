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

At seed 4 on the two base configs it also runs `parse`, `partition`,
`account` and `evaluate`, and on the synthetic one `synth`.

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
Each side runs each command into `<run>/<side>/<command>/`, except that
`evaluate` reads train's directory and `account` writes none, and saves
its standard output as `<run>/<side>/<command>.stdout`, with the side's
directory written `<out>`. The check then compares every file under
either side, byte for byte, one line each. Only the `wall_seconds`
column, found by name in the header of the side's own `train/rounds.csv`,
is dropped first, from the rows of rounds.csv: `train/rounds.csv`,
`train.stdout` and `evaluate.stdout`. It exits 1 if any file differs or
is only on one side, if a command fails on either side, if the hex-id
log routes no more than `drain.MAX_CHILDREN` tokens below one tree node,
or if the messy log has no node out of time order; and 2 if `git
archive` cannot extract BASE.

Below each `DIFFERENT` line it says what differs: for `model.ckpt`, each
tensor whose values differ and its largest absolute difference, as
`flog.model.read_checkpoint` reads both files; for any other output, the
first line that differs, from both trees, truncated; for a file on one
side only, which side has it.
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
# The files that hold rows of rounds.csv: train writes and prints them, and
# evaluate prints the last one re-scored.
ROWS = ("train/rounds.csv", "train.stdout", "evaluate.stdout")

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


def run_commands(tree: Path, config: Path, out: Path, commands, seed: int) -> list[str]:
    """Runs flog's `commands` from `tree` into `out`, each in a fresh interpreter,
    as the module docstring says; returns the failed ones' error lines."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out.mkdir(parents=True)
    failed = []
    for command in commands:
        args = [command, "--config", config]
        if command == "train":
            args += ["--seed", seed]
        if command != "account":
            args += ["--out", out / ("train" if command == "evaluate" else command)]
        proc = subprocess.run([sys.executable, "-c", CLI, str(tree / "src"), *map(str, args)],
                              capture_output=True, env=env)
        (out / f"{command}.stdout").write_bytes(proc.stdout.replace(os.fsencode(out), b"<out>"))
        if proc.returncode != 0:
            lines = proc.stderr.decode(errors="replace").strip().splitlines()
            failed.append(f"{command}: {(lines or [f'exit status {proc.returncode}'])[-1]}")
    return failed


def content(side: Path, name: str) -> bytes:
    """The file `name` under `side`; if it holds rows of rounds.csv, without the
    wall_seconds field that the header of the side's own train/rounds.csv names."""
    data = (side / name).read_bytes()
    rounds_csv = side / "train" / "rounds.csv"
    if name not in ROWS or not rounds_csv.is_file():
        return data
    header = rounds_csv.read_bytes().partition(b"\n")[0].split(b",")
    if b"wall_seconds" not in header:
        return data
    drop = header.index(b"wall_seconds")
    rows = (line.split(b",") for line in data.split(b"\n"))
    return b"\n".join(b",".join(r[:drop] + r[drop + 1:]) for r in rows)


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


def compare(label: str, run_dir: Path) -> bool:
    """Prints one line per file under either side of `run_dir`; returns whether all match.

    Below a DIFFERENT line, indented lines say what differs.
    """
    sides = run_dir / "base", run_dir / "here"
    names = sorted({path.relative_to(side).as_posix()
                    for side in sides for path in side.rglob("*") if path.is_file()})
    same = True
    for name in names:
        a, b = (side / name for side in sides)
        if not (a.is_file() and b.is_file()):
            details = [f"only in {'here' if b.is_file() else 'base'}"]
        elif content(sides[0], name) == content(sides[1], name):
            details = []
        elif name.endswith(".ckpt"):
            details = tensor_differences(a, b)
        else:
            details = first_difference(content(sides[0], name), content(sides[1], name))
        same &= not details
        print(f"{label}: {name} {'DIFFERENT' if details else 'identical'}")
        for detail in details:
            print(f"    {detail}")
    return same


def same_cli(label: str, trees: dict[str, Path], config: Path, out: Path, commands,
             seed: int = 4) -> bool:
    """Runs `commands` in both trees, then compares; a command failing on either side fails."""
    ran = True
    for side, tree in trees.items():
        for failure in run_commands(tree, config, out / side, commands, seed):
            print(f"{label}: {side} {failure}")
            ran = False
    return compare(label, out) and ran


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", metavar="BASE", help="git revision to compare the working tree with")
    args = ap.parse_args()
    same = True
    with tempfile.TemporaryDirectory(prefix="same_artifacts_") as tmp:
        tmp = Path(tmp)
        try:
            extract(args.base, tmp / "base")
        except subprocess.CalledProcessError as exc:
            lines = exc.stderr.decode(errors="replace").strip().splitlines()
            print((lines or [f"git archive {args.base} failed"])[-1], file=sys.stderr)
            return 2
        trees = {"base": tmp / "base", "here": ROOT}
        runs = configs(tmp / "inputs")
        every = ("parse", "partition", "account", "train", "evaluate")
        commands = {("synthetic", 4): ("synth", *every), ("tbird-ingest", 4): every}
        for name, config, seed in runs:
            same &= same_cli(f"{name} seed {seed}", trees, config,
                             tmp / "runs" / f"{name}.seed{seed}",
                             commands.get((name, seed), ("train",)), seed)
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
