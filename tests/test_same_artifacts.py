"""What `tools/same_artifacts.py` prints below a DIFFERENT line."""

import importlib.util
from pathlib import Path

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
