"""The flog names the benchmark reaches, run through its tracer and training grid.

`perfbench/tracing.py` wraps flog functions by name and reads their
arguments and results, and `perfbench/child.py` times `federated.local_train`
on a bare `ClientDataset`. These tests run both against the pipeline, so a
change that renames or reshapes one of those names fails here. Both files
are loaded without writing bytecode, so nothing is written under
`perfbench/`.
"""

import dataclasses
import importlib.util
import math
import sys
import warnings
from pathlib import Path

import pytest

from flog import pipeline
from flog.config import load_config

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture
def cfg(tmp_path):
    """configs/synthetic.yaml on 4,000 lines, 2 rounds of 1 epoch."""
    cfg = load_config(ROOT / "configs" / "synthetic.yaml")
    return dataclasses.replace(
        cfg,
        dataset=dataclasses.replace(cfg.dataset, synthetic=dataclasses.replace(
            cfg.dataset.synthetic, n_lines=4000)),
        federated=dataclasses.replace(cfg.federated, rounds=2, local_epochs=1),
        output_dir=str(tmp_path / "out"),
    )


def test_tracer_counts_the_run_and_restores_every_name(cfg):
    tracer = load_perfbench("tracing").Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert patched and all(getattr(h, attr) is not orig for h, attr, orig in patched)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pipeline.run_pipeline(cfg, seed=1)
    finally:
        tracer.uninstall()
    assert all(getattr(h, attr) is orig for h, attr, orig in patched)

    corpus = pipeline.read_corpus(cfg)
    n_windows = sum(len(train) + len(test)
                    for _, train, test in pipeline.node_windows(corpus, cfg))
    layers = tracer.layer_metrics()
    assert layers["windows.windows"] == n_windows > 0
    assert layers["drain.templates"] == corpus.n_templates
    assert layers["model.forward_calls"] > 0 and layers["federated.participant_updates"] > 0


def test_train_grid(cfg):
    n_templates = pipeline.read_corpus(cfg).n_templates
    grid = load_perfbench("child").train_grid(cfg, n_templates, 1, n_samples=4, repeats=1)
    assert len(grid) == 9
    assert all(math.isfinite(v) and v > 0 for v in grid.values())
