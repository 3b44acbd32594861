"""What `tools/same_artifacts.py` compares, and what it prints below a DIFFERENT line."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from flog.model import ModelConfig, init

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_artifacts.py"
spec = importlib.util.spec_from_file_location("same_artifacts", TOOL)
same_artifacts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_artifacts)


def test_first_differing_line_from_both_sides_truncated():
    base = b"header\nrow 1\nrow 2 " + b"x" * 200 + b"\n"
    here = b"header\nrow 1\nrow 2 " + b"y" * 200 + b"\n"
    line, a, b = same_artifacts.first_difference(base, here)
    assert line == "line 3"
    assert a == "  base " + repr("row 2 " + "x" * 94 + "...")
    assert b == "  here " + repr("row 2 " + "y" * 94 + "...")


def test_a_missing_line_and_line_endings():
    assert same_artifacts.first_difference(b"a\nb\n", b"a\n") == [
        "line 2", "  base 'b'", "  here (no line)"]
    assert same_artifacts.first_difference(b"a\nb\n", b"a\r\nb") == [
        "the same lines, other line endings"]


def test_each_differing_tensor_and_its_largest_difference(tmp_path):
    state = init(ModelConfig(vocab_size=5), 0)
    state.save(tmp_path / "base.ckpt")
    flat = state.get_trainable()
    flat[[0, 1]] += [0.25, -0.5]
    state.set_trainable(flat)
    state.save(tmp_path / "here.ckpt")
    # The first two trainable coordinates lie in one tensor.
    assert same_artifacts.tensor_differences(tmp_path / "base.ckpt", tmp_path / "here.ckpt") == [
        "Aq_0 max |diff| 0.5"]


def write_side(run_dir, side, files):
    for name, text in files.items():
        path = run_dir / side / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def test_a_file_on_one_side_only_is_different(tmp_path, capsys):
    write_side(tmp_path, "base", {"train/ledger.txt": "rounds=5\n"})
    write_side(tmp_path, "here", {"train/ledger.txt": "rounds=5\n", "train/extra.txt": "x\n"})
    assert not same_artifacts.compare("run", tmp_path)
    assert capsys.readouterr().out.splitlines() == [
        "run: train/extra.txt DIFFERENT", "    only in here", "run: train/ledger.txt identical"]


def fake_tree(root, body):
    """A tree whose `flog.cli.main(argv)` runs `body`, with `out` its --out or None."""
    (root / "src" / "flog").mkdir(parents=True)
    (root / "src" / "flog" / "__init__.py").write_text("")
    (root / "src" / "flog" / "cli.py").write_text(
        "import sys\nfrom pathlib import Path\n\n\ndef main(argv):\n"
        "    out = Path(argv[argv.index('--out') + 1]) if '--out' in argv else None\n"
        + "".join(f"    {line}\n" for line in body))
    return root


def test_a_command_failing_on_both_sides_fails_the_gate(tmp_path, capsys):
    tree = fake_tree(tmp_path / "tree", ["print('no such file', file=sys.stderr)", "return 1"])
    trees = {"base": tree, "here": tree}
    assert not same_artifacts.same_cli("run", trees, tmp_path / "cfg.yaml", tmp_path / "run",
                                       ("account",))
    assert capsys.readouterr().out.splitlines() == [
        "run: base account: no such file", "run: here account: no such file",
        "run: account.stdout identical"]


def test_out_stands_for_each_sides_directory(tmp_path, capsys):
    tree = fake_tree(tmp_path / "tree", [
        "out.mkdir()", "(out / 'templates.tsv').write_text('t\\n')",
        "print(f'1 templates -> {out / \"templates.tsv\"}')", "return 0"])
    assert same_artifacts.same_cli("run", {"base": tree, "here": tree}, tmp_path / "cfg.yaml",
                                   tmp_path / "run", ("parse",))
    for side in ("base", "here"):
        stdout = (tmp_path / "run" / side / "parse.stdout").read_text()
        assert stdout == "1 templates -> <out>/parse/templates.tsv\n"
    assert capsys.readouterr().out.splitlines() == [
        "run: parse.stdout identical", "run: parse/templates.tsv identical"]


ROWS = "round,wall_seconds,f1\n0,{wall},{f1}\n1,{wall},{f1}\n"


@pytest.mark.parametrize("here,verdict", [
    (dict(wall="0.912", f1="0.5"), "identical"),
    (dict(wall="0.125", f1="0.6"), "DIFFERENT"),
])
def test_rows_are_compared_without_wall_seconds(tmp_path, capsys, here, verdict):
    # The column is found by name, wherever the header puts it; train
    # prints its rows without the header, and evaluate with it.
    for side, values in (("base", dict(wall="0.125", f1="0.5")), ("here", here)):
        rows = ROWS.format(**values)
        write_side(tmp_path, side, {"train/rounds.csv": rows, "evaluate.stdout": rows,
                                    "train.stdout": rows.split("\n", 1)[1]})
    assert same_artifacts.compare("run", tmp_path) == (verdict == "identical")
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("run:")]
    assert lines == [f"run: {name} {verdict}"
                     for name in ("evaluate.stdout", "train.stdout", "train/rounds.csv")]


def test_unknown_base_is_exit_status_2():
    proc = subprocess.run([sys.executable, str(TOOL), "no-such-rev"],
                          capture_output=True, text=True, cwd=TOOL.parent)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
