"""End-to-end pipeline orchestration and the command-line interface."""

import gc
import logging
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import pytest
import yaml

import flog
from flog import federated, partition, pipeline
from flog.cli import main
from flog.config import load_config
from flog.datasets import SyntheticCorpus, encode_line
from flog.model import ModelConfig, init
from flog.pipeline import ARTIFACTS, StageError, load_entries, parse_corpus, run_pipeline

# Hand-written Thunderbird lines: node dn731's lines arrive out of order
# (two with equal timestamps), node tn12 spans two months, and the file
# holds one malformed line and one blank line among its 30.
THUNDERBIRD_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "thunderbird_small.log"
# Hand-written BGL lines with CRLF endings and invalid UTF-8 bytes; 24
# lines, one of them malformed (no message) and one blank.
BGL_FIXTURE = THUNDERBIRD_FIXTURE.with_name("bgl_small.log")


def small_doc(out_dir, n_lines=3000):
    return {
        "dataset": {
            "format": "synthetic",
            "synthetic": {
                "n_templates": 8,
                "n_nodes": 4,
                "n_lines": n_lines,
                "anomaly_rate": 0.08,
                "anomaly_template_ids": [6, 7],
                "seed": 5,
                "mean_burst_length": 10,
                "mean_gap_seconds": 4.0,
            },
        },
        "window": {
            "window_seconds": 60,
            "step_seconds": 30,
            "min_logs_per_window": 2,
            "max_sequence_length": 64,
        },
        "model": {
            "hidden_dim": 4,
            "head_dim": 4,
            "n_heads": 1,
            "n_layers": 1,
            "lora_rank": 1,
            "lora_alpha": 4.0,
            "lora_dropout": 0.0,
            "ffn_dim": 8,
        },
        "federated": {
            "k_clients": 2,
            "rounds": 2,
            "participation_rate": 1.0,
            "local_epochs": 1,
            "learning_rate": 0.1,
            "noise_multiplier": 0.2,
            "batch_size": 8,
        },
        "privacy": {"target_epsilon": 100.0, "delta": 1.0e-5},
        "output_dir": str(out_dir),
    }


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(small_doc(tmp_path / "out")))
    return path


def read_masked_rounds(path):
    """rounds.csv lines with the wall_seconds column blanked out."""
    lines = path.read_text().splitlines()
    out = []
    for line in lines:
        cols = line.split(",")
        cols[-1] = "_"
        out.append(",".join(cols))
    return out


class TestRunPipeline:
    def test_produces_all_artifacts(self, cfg_path, tmp_path):
        cfg = load_config(cfg_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            metrics = run_pipeline(cfg, seed=0)
        assert len(metrics) == cfg.federated.rounds
        for name in ARTIFACTS:
            assert (tmp_path / "out" / name).exists(), name

    def test_same_seed_reproduces_artifacts(self, cfg_path, tmp_path):
        cfg = load_config(cfg_path)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_pipeline(cfg, seed=3)
            first = {
                "ckpt": (out / "model.ckpt").read_bytes(),
                "rounds": read_masked_rounds(out / "rounds.csv"),
                "templates": (out / "templates.tsv").read_bytes(),
                "assignment": (out / "assignment.tsv").read_bytes(),
                "ledger": (out / "ledger.txt").read_bytes(),
            }
            run_pipeline(cfg, seed=3)
        assert (out / "model.ckpt").read_bytes() == first["ckpt"]
        assert read_masked_rounds(out / "rounds.csv") == first["rounds"]
        assert (out / "templates.tsv").read_bytes() == first["templates"]
        assert (out / "assignment.tsv").read_bytes() == first["assignment"]
        assert (out / "ledger.txt").read_bytes() == first["ledger"]

    def test_different_seed_changes_model(self, cfg_path, tmp_path):
        cfg = load_config(cfg_path)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_pipeline(cfg, seed=0)
            first = (out / "model.ckpt").read_bytes()
            run_pipeline(cfg, seed=1)
        assert (out / "model.ckpt").read_bytes() != first

    def test_rounds_csv_schema(self, cfg_path, tmp_path):
        cfg = load_config(cfg_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_pipeline(cfg, seed=0)
        lines = (tmp_path / "out" / "rounds.csv").read_text().splitlines()
        assert lines[0] == (
            "round,participants,accuracy,precision,recall,f1,roc_auc,"
            "eps_spent,mean_pre_clip_norm,wall_seconds"
        )
        assert len(lines) == 1 + cfg.federated.rounds

    def test_failing_stage_is_named(self, cfg_path, monkeypatch, capsys):
        def broken(records, cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr("flog.pipeline.windows.build_windows", broken)
        with pytest.raises(StageError) as info:
            run_pipeline(load_config(cfg_path), seed=0)
        assert info.value.stage == "window"
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert "stage 'window' failed" in capsys.readouterr().err

    def test_empty_test_split_fails_in_window_stage(self, tmp_path, capsys):
        # 40 lines make one or two windows per node, and a fifth of that
        # rounds down to no test window anywhere. Both commands stop in the
        # window stage, before anything is trained or loaded, and say why.
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(small_doc(tmp_path / "out", n_lines=40)))
        assert main(["train", "--config", str(path)]) == 1
        assert "stage 'window' failed: no test windows" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not any((out / name).exists() for name in ARTIFACTS[1:])
        # evaluate reads the corpus once its checkpoint and last round read.
        init(ModelConfig(vocab_size=3), 0).save(out / "model.ckpt")
        (out / "rounds.csv").write_text(
            "round,participants,eps_spent\n0,1,0.5\n", encoding="utf-8")
        assert main(["evaluate", "--config", str(path)]) == 1
        assert "stage 'window' failed: no test windows" in capsys.readouterr().err

    def test_unreadable_dataset_names_ingest_stage(self, tmp_path, capsys):
        # A directory passes the load-time existence check and fails on read.
        path = log_file_config(tmp_path, "thunderbird", tmp_path)
        for command in ("parse", "partition", "train"):
            assert main([command, "--config", str(path)]) == 1, command
            assert "stage 'ingest' failed" in capsys.readouterr().err, command
        # evaluate reads the corpus once its checkpoint and last round read
        # cleanly; the checkpoint's shapes are checked after the corpus.
        out = tmp_path / "out"
        init(ModelConfig(vocab_size=3), 0).save(out / "model.ckpt")
        (out / "rounds.csv").write_text(
            "round,participants,eps_spent\n0,1,0.5\n", encoding="utf-8")
        assert main(["evaluate", "--config", str(path)]) == 1
        assert "stage 'ingest' failed" in capsys.readouterr().err

    def test_every_round_is_a_release(self, tmp_path, capsys):
        # 8 clients over 4 nodes: clients 4-7 hold no window, and at q=0.25
        # some rounds draw only them or nobody. Each round still writes a
        # row and is accounted, so ledger.txt matches `flog account`.
        doc = small_doc(tmp_path / "out")
        doc["federated"].update(k_clients=8, rounds=10, participation_rate=0.25)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--config", str(path), "--seed", "1"]) == 0
            capsys.readouterr()
            assert main(["account", "--config", str(path)]) == 0
        rows = (tmp_path / "out" / "rounds.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(10))
        ledger = (tmp_path / "out" / "ledger.txt").read_text()
        assert "rounds=10" in ledger
        assert ledger == capsys.readouterr().out

    def test_no_per_line_object_survives_into_training(self, cfg_path, monkeypatch):
        # The parsed corpus goes once the windows are built, and the client
        # datasets once the trainer has packed them: training starts with
        # none of them alive.
        refs = []

        def watched(fn):
            def wrapper(*args):
                result = fn(*args)
                refs.extend(map(weakref.ref, result if isinstance(result, list) else [result]))
                return result
            return wrapper

        monkeypatch.setattr(pipeline, "read_corpus", watched(pipeline.read_corpus))
        monkeypatch.setattr(partition, "materialize", watched(partition.materialize))
        train = federated.FederatedTrainer.run
        alive_at_training = []

        def run(trainer):
            gc.collect()
            alive_at_training.extend(type(r()).__name__ for r in refs if r() is not None)
            return train(trainer)

        monkeypatch.setattr(federated.FederatedTrainer, "run", run)
        cfg = load_config(cfg_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_pipeline(cfg, seed=0)
        assert len(refs) == 1 + cfg.federated.k_clients
        assert alive_at_training == []


class TestSyntheticEntries:
    def test_len_is_the_lines_iterated(self, cfg_path):
        cfg = load_config(cfg_path)
        entries = load_entries(cfg)
        assert len(entries) == sum(1 for _ in entries) == cfg.dataset.synthetic.n_lines
        assert list(entries) == list(SyntheticCorpus(cfg.dataset.synthetic))

    def test_max_samples_keeps_a_time_sorted_prefix(self, tmp_path):
        doc = small_doc(tmp_path / "out")
        doc["dataset"]["max_samples"] = 1234
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        cfg = load_config(path)
        entries = load_entries(cfg)
        assert len(entries) == 1234
        assert list(entries) == list(SyntheticCorpus(cfg.dataset.synthetic))[:1234]


def log_file_config(tmp_path, fmt, log_path):
    """A one-round config over a log file, with outputs under tmp_path/out."""
    doc = small_doc(tmp_path / "out")
    doc["dataset"] = {"format": fmt, "path": str(log_path)}
    doc["window"] = {"window_seconds": 60, "step_seconds": 30, "max_sequence_length": 16}
    doc["federated"]["rounds"] = 1
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


class TestThunderbirdFixture:
    @pytest.fixture
    def cfg(self, tmp_path):
        return load_config(log_file_config(tmp_path, "thunderbird", THUNDERBIRD_FIXTURE))

    def test_run_pipeline_completes(self, cfg, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="flog.pipeline"):
            metrics = run_pipeline(cfg, seed=0)
        assert len(metrics) == 1
        for name in ARTIFACTS:
            assert (tmp_path / "out" / name).exists(), name
        assert "read 30 lines" in caplog.text and "skipped 1 malformed" in caplog.text
        assert "sorted the records of 1 of 3 nodes" in caplog.text
        rows = (tmp_path / "out" / "templates.tsv").read_text().splitlines()[1:]
        assert sum(int(row.split("\t")[2]) for row in rows) == 28

    def test_drain_in_file_order_windows_in_time_order(self, cfg):
        corpus = parse_corpus(load_entries(cfg), cfg)
        templates = {tpl.render(): eid for eid, tpl in corpus.parser.templates.items()}
        # Event ids are first-seen ids in file order, not in time order.
        assert templates["session opened for user <*> by <*>"] == 0
        assert templates["Accepted publickey for <*> from <*> port <*> <*>"] == 1
        records = corpus.records_by_node["dn731"]
        times = [r.timestamp for r in records]
        assert times == sorted(times) and len(records) == 13
        # The two lines at 20:05:12 keep their file order.
        tie = [r.event_id for r in records if r.timestamp == 1131566712]
        assert tie == [1, 0]


class TestBglFixture:
    def test_train_completes(self, tmp_path, caplog):
        path = log_file_config(tmp_path, "bgl", BGL_FIXTURE)
        with caplog.at_level(logging.INFO, logger="flog.pipeline"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--config", str(path)]) == 0
        for name in ARTIFACTS:
            assert (tmp_path / "out" / name).exists(), name
        assert "read 24 lines" in caplog.text and "skipped 1 malformed" in caplog.text
        rows = (tmp_path / "out" / "templates.tsv").read_text(encoding="utf-8").splitlines()[1:]
        assert sum(int(row.split("\t")[2]) for row in rows) == 22
        assert any("\ufffd" in row for row in rows)


class TestLargeProfile:
    def test_14_clients_10_rounds_on_synthetic(self, tmp_path):
        # The large-run profile shape (14 clients, 10 rounds, 50%
        # participation) on a small synthetic corpus: one metrics row per
        # round and a fully spent linear budget.
        doc = small_doc(tmp_path / "out", n_lines=4000)
        doc["dataset"]["synthetic"]["n_nodes"] = 14
        doc["federated"].update(
            k_clients=14, rounds=10, participation_rate=0.5,
            local_epochs=1, noise_multiplier=1.0,
        )
        doc["privacy"] = {"target_epsilon": 10.0, "delta": 1.0e-5}
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        cfg = load_config(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            metrics = run_pipeline(cfg, seed=0)
        assert len(metrics) == 10
        ledger = (tmp_path / "out" / "ledger.txt").read_text()
        assert "eps_linear=10.0" in ledger


class TestShippedConfigs:
    def test_synthetic_profile_loads(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        cfg = load_config(root / "configs" / "synthetic.yaml")
        assert cfg.federated.k_clients == 4
        assert cfg.federated.rounds == 5

    def test_file_profiles_validate_structure(self, tmp_path):
        # The file-based profiles point at local datasets that are not
        # shipped; loading with a stand-in path checks every other field.
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        for name in ("thunderbird.yaml", "bgl.yaml"):
            doc = yaml.safe_load((root / "configs" / name).read_text())
            stub = tmp_path / "data.log"
            stub.write_text("")
            doc["dataset"]["path"] = str(stub)
            path = tmp_path / name
            path.write_text(yaml.safe_dump(doc))
            cfg = load_config(path)
            assert cfg.federated.clip_bound == 1.0


class TestCli:
    def test_synth(self, tmp_path, capsys):
        # The file is the corpus, line for line, written as each line is
        # rendered: at 50,000 lines, holding a list of every entry peaks at
        # ~240 B a line under tracemalloc, and streaming at ~55.
        doc = small_doc(tmp_path / "out", n_lines=50_000)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        spec = load_config(path).dataset.synthetic
        tracemalloc.start()
        try:
            assert main(["synth", "--config", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = (tmp_path / "out" / "synthetic.log").read_text(encoding="utf-8")
        assert text == "".join(encode_line(e) + "\n" for e in SyntheticCorpus(spec))
        assert text.count("\n") == spec.n_lines
        assert peak < 120 * spec.n_lines

    def test_parse(self, cfg_path, tmp_path):
        assert main(["parse", "--config", str(cfg_path)]) == 0
        table = (tmp_path / "out" / "templates.tsv").read_text()
        assert table.startswith("event_id\ttemplate\tcount\n")

    def test_synth_on_file_format_is_configuration_error(self, tmp_path, capsys):
        path = log_file_config(tmp_path, "thunderbird", THUNDERBIRD_FIXTURE)
        assert main(["synth", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "configuration error: flog synth needs dataset.format synthetic")
        assert not (tmp_path / "out" / "synthetic.log").exists()

    def test_partition(self, cfg_path, tmp_path):
        assert main(["partition", "--config", str(cfg_path)]) == 0
        dump = (tmp_path / "out" / "assignment.tsv").read_text().splitlines()
        assert dump[0] == "node_id\tclient_id"
        assert len(dump) == 5  # header + 4 nodes

    def test_train_then_evaluate(self, cfg_path, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
            capsys.readouterr()
            assert main(["evaluate", "--config", str(cfg_path), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("round,participants,")
        # The reloaded checkpoint scores the test split exactly as the last
        # training round did: accuracy, precision, recall, F1, ROC-AUC.
        last = (tmp_path / "out" / "rounds.csv").read_text().splitlines()[-1]
        assert out.splitlines()[1].split(",")[2:7] == last.split(",")[2:7]
        # ... and reports that round's index, participants and eps spent.
        row, want = out.splitlines()[1].split(","), last.split(",")
        assert [row[i] for i in (0, 1, 7)] == [want[i] for i in (0, 1, 7)]

    def test_evaluate_without_rounds_csv_fails(self, cfg_path, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
        (tmp_path / "out" / "rounds.csv").unlink()
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path), "--seed", "1"]) == 1
        assert "no rounds.csv" in capsys.readouterr().err

    def test_evaluate_on_damaged_checkpoint_names_load_stage(self, cfg_path, tmp_path,
                                                             monkeypatch, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
        ckpt = tmp_path / "out" / "model.ckpt"
        good = ckpt.read_bytes()

        def unread(cfg):
            raise AssertionError("the corpus was read")

        # The checkpoint file is checked before the corpus is read.
        monkeypatch.setattr("flog.cli.read_corpus", unread)
        for damaged in (b"garbage", good[: len(good) // 2], b""):
            ckpt.write_bytes(damaged)
            capsys.readouterr()
            assert main(["evaluate", "--config", str(cfg_path), "--seed", "1"]) == 1
            out, err = capsys.readouterr()
            assert f"stage 'load' failed: {ckpt}: " in err, damaged[:8]
            assert "configuration error" not in err
            assert out == ""

    def test_evaluate_on_unparsable_last_round_names_load_stage(self, cfg_path, tmp_path,
                                                                capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
        rounds_csv = tmp_path / "out" / "rounds.csv"
        lines = rounds_csv.read_text(encoding="utf-8").splitlines()
        rounds_csv.write_text("\n".join([*lines[:-1], "x,y,z"]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path), "--seed", "1"]) == 1
        out, err = capsys.readouterr()
        assert f"stage 'load' failed: {rounds_csv}: " in err
        assert "configuration error" not in err
        assert out == ""

    def test_evaluate_without_checkpoint_fails(self, cfg_path, tmp_path, capsys):
        assert main(["evaluate", "--config", str(cfg_path)]) == 1
        assert "no checkpoint" in capsys.readouterr().err

    def test_evaluate_creates_no_output_directory(self, cfg_path, tmp_path, capsys):
        typo = tmp_path / "typo"
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(typo)]) == 1
        assert "no checkpoint" in capsys.readouterr().err
        assert not typo.exists()

    def test_account(self, cfg_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["account", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "eps_rdp=" in out and "rounds=2" in out

    def test_out_override(self, cfg_path, tmp_path):
        alt = tmp_path / "alt"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(
                ["train", "--config", str(cfg_path), "--out", str(alt)]
            ) == 0
        assert (alt / "model.ckpt").exists()
        # Every subcommand that writes takes --out the same way.
        for command, artifact in [("synth", "synthetic.log"), ("parse", "templates.tsv"),
                                  ("partition", "assignment.tsv")]:
            assert main([command, "--config", str(cfg_path), "--out", str(alt)]) == 0
            assert (alt / artifact).exists()
        assert not (tmp_path / "out").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("nonsense: {}\n")
        assert main(["train", "--config", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err
        for value in ([1, 2], 5):
            path.write_text(yaml.safe_dump({**small_doc(tmp_path), "federated": value}))
            assert main(["account", "--config", str(path)]) == 1
            assert "configuration error: federated must be a mapping" in capsys.readouterr().err
        # A missing file, a directory and malformed YAML name the path.
        path.write_text("dataset: [unclosed\n")
        for unreadable in (tmp_path / "missing.yaml", tmp_path, path):
            assert main(["train", "--config", str(unreadable)]) == 1
            assert capsys.readouterr().err.startswith(
                f"configuration error: cannot load {unreadable}: ")

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


# Run in a fresh interpreter, so modules the test session has already
# imported do not count.
_IMPORTED_DISTRIBUTIONS = """
import sys
from importlib.metadata import packages_distributions
before = set(sys.modules)
import flog.cli, flog.pipeline
owners = packages_distributions()
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted({d.lower() for name in loaded for d in owners.get(name, [])})))
"""


class TestDependencies:
    def test_cli_and_pipeline_import_only_numpy_and_pyyaml(self):
        src = str(Path(flog.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _IMPORTED_DISTRIBUTIONS],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert set(out.split()) - {"flog"} == {"numpy", "pyyaml"}
