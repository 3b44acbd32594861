"""End-to-end pipeline orchestration and the command-line interface."""

import dataclasses
import gc
import logging
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import flog
from flog import federated, partition, pipeline, windows
from flog.accountant import epsilon_for
from flog.cli import _COMMANDS, main
from flog.config import load_config
from flog.datasets import RawEntry, SyntheticCorpus, encode_line
from flog.drain import DrainParser, LogRecord
from flog.metrics import CSV_HEADER, RoundMetrics, csv_row
from flog.model import ModelConfig, class_weights_from_labels, init, pack_keys
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


# A rounds.csv row in every CSV_HEADER column, for a checkpoint that no run wrote.
FULL_ROW = csv_row(RoundMetrics(*[1] * len(dataclasses.fields(RoundMetrics))))


def read_masked_rounds(path):
    """rounds.csv lines with the wall_seconds column, found by name, blanked out."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    col = rows[0].index("wall_seconds")
    for cols in rows:
        cols[col] = "_"
    return [",".join(cols) for cols in rows]


class TestRunPipeline:
    def test_produces_all_artifacts(self, cfg_path, tmp_path):
        cfg = load_config(cfg_path)
        metrics = run_pipeline(cfg, seed=0)
        assert len(metrics) == cfg.federated.rounds
        for name in ARTIFACTS:
            assert (tmp_path / "out" / name).exists(), name

    def test_same_seed_reproduces_artifacts(self, cfg_path, tmp_path):
        cfg = load_config(cfg_path)
        out = tmp_path / "out"
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
        run_pipeline(cfg, seed=0)
        first = (out / "model.ckpt").read_bytes()
        run_pipeline(cfg, seed=1)
        assert (out / "model.ckpt").read_bytes() != first

    def test_negative_seed_fails_before_any_stage(self, cfg_path, tmp_path, monkeypatch):
        def unread(cfg):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(pipeline, "load_entries", unread)
        with pytest.raises(ValueError, match="^--seed must be >= 0, got -1$"):
            run_pipeline(load_config(cfg_path), seed=-1)
        assert not (tmp_path / "out").exists()

    def test_rounds_csv_schema(self, cfg_path, tmp_path):
        cfg = load_config(cfg_path)
        run_pipeline(cfg, seed=0)
        lines = (tmp_path / "out" / "rounds.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
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

    def test_non_finite_update_fails_train_stage(self, cfg_path, monkeypatch, capsys):
        # A NaN update would void the sensitivity aggregate states and release
        # a NaN model; the round stops in stage 'train' instead.
        def nan_updates(cohort, state, flat, cfg, rngs):
            return np.full((len(cohort.members), len(flat)), np.nan)

        monkeypatch.setattr(federated, "local_train", nan_updates)
        with pytest.raises(StageError, match="update row 0 is not finite") as info:
            run_pipeline(load_config(cfg_path), seed=0)
        assert info.value.stage == "train"
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert "stage 'train' failed: update row 0 is not finite" in capsys.readouterr().err

    def test_non_finite_scores_fail_train_stage(self, tmp_path, capsys):
        # Noise of scale 1e100 leaves every test window's score NaN, which
        # no metric can rank or threshold.
        doc = small_doc(tmp_path / "out")
        doc["federated"].update(noise_multiplier=1e100, rounds=1)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        every = r"(\d+) of \1 scores are not finite"
        with pytest.raises(StageError, match=every) as info:
            run_pipeline(load_config(path), seed=0)
        assert info.value.stage == "train"
        assert main(["train", "--config", str(path)]) == 1
        assert re.match(f"stage 'train' failed: {every}", capsys.readouterr().err)
        assert not (tmp_path / "out" / "rounds.csv").exists()

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
        (out / "rounds.csv").write_text(f"{CSV_HEADER}\n{FULL_ROW}\n", encoding="utf-8")
        assert main(["evaluate", "--config", str(path)]) == 1
        assert "stage 'window' failed: no test windows" in capsys.readouterr().err

    def test_unreadable_dataset_names_ingest_stage(self, tmp_path, capsys):
        # A directory loads, as any path does, and fails on read.
        path = log_file_config(tmp_path, "thunderbird", tmp_path)
        for command in ("parse", "partition", "train"):
            assert main([command, "--config", str(path)]) == 1, command
            assert "stage 'ingest' failed" in capsys.readouterr().err, command
        # evaluate reads the corpus once its checkpoint and last round read
        # cleanly; the checkpoint's shapes are checked after the corpus.
        out = tmp_path / "out"
        init(ModelConfig(vocab_size=3), 0).save(out / "model.ckpt")
        (out / "rounds.csv").write_text(f"{CSV_HEADER}\n{FULL_ROW}\n", encoding="utf-8")
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
        # Both commands warn from round 5 on, where epsilon passes 100.
        with pytest.warns(UserWarning, match="exceeds target 100 after round") as record:
            assert main(["train", "--config", str(path), "--seed", "1"]) == 0
            capsys.readouterr()
            assert main(["account", "--config", str(path)]) == 0
        # pytest.warns re-emits a warning it did not match outside flog's
        # module, where a flog RuntimeWarning would no longer fail the suite.
        assert {w.category for w in record} == {UserWarning}
        rows = (tmp_path / "out" / "rounds.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(10))
        ledger = (tmp_path / "out" / "ledger.txt").read_text()
        assert "rounds=10" in ledger
        assert ledger == capsys.readouterr().out

    def test_no_per_line_object_survives_into_training(self, cfg_path, monkeypatch):
        # Each node's windows go into flat columns as they are cut: the list
        # build_windows returns for a node is dead before the next node's is
        # built, and training starts with none of them, nor the parsed
        # corpus, alive. A plain list takes no weakref, so the watched
        # build_windows hands the pipeline a list subclass.
        class WindowList(list):
            pass

        corpus_refs, window_refs, alive_at_build = [], [], []
        read_corpus, build_windows = pipeline.read_corpus, windows.build_windows

        def watched_read(*args):
            corpus = read_corpus(*args)
            corpus_refs.append(weakref.ref(corpus))
            return corpus

        def watched_build(*args):
            alive_at_build.append(sum(r() is not None for r in window_refs))
            ws = WindowList(build_windows(*args))
            window_refs.append(weakref.ref(ws))
            return ws

        monkeypatch.setattr(pipeline, "read_corpus", watched_read)
        monkeypatch.setattr(windows, "build_windows", watched_build)
        train = federated.FederatedTrainer.run
        alive_at_training = []

        def run(trainer):
            gc.collect()
            alive_at_training.extend(
                type(r()).__name__ for r in corpus_refs + window_refs if r() is not None)
            return train(trainer)

        monkeypatch.setattr(federated.FederatedTrainer, "run", run)
        cfg = load_config(cfg_path)
        run_pipeline(cfg, seed=0)
        n_nodes = cfg.dataset.synthetic.n_nodes
        assert len(corpus_refs) == 1 and len(window_refs) == n_nodes
        assert alive_at_build == [0] * n_nodes
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
        corpus = parse_corpus(load_entries(cfg))
        templates = {tpl.render(): tpl.event_id for tpl in corpus.parser.templates}
        # Event ids are first-seen ids in file order, not in time order.
        assert templates["session opened for user <*> by <*>"] == 0
        assert templates["Accepted publickey for <*> from <*> port <*> <*>"] == 1
        records = corpus.records_by_node["dn731"]
        times = [r.timestamp for r in records]
        assert times == sorted(times) and len(records) == 13
        # The two lines at 20:05:12 keep their file order.
        tie = [r.event_id for r in records if r.timestamp == 1131566712]
        assert tie == [1, 0]


class TestParseCorpusOrder:
    @given(lines=st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 5)), max_size=30))
    def test_sorts_exactly_the_nodes_out_of_time_order(self, lines):
        # Three templates, so records with equal timestamps can be told apart.
        words = ["xyz"[i % 3] for i in range(len(lines))]
        event_ids = {word: k for k, word in enumerate(dict.fromkeys(words))}
        entries = [RawEntry("-", t, node, f"event {word}") for (node, t), word in zip(lines, words)]
        with pytest.MonkeyPatch.context() as mp:
            messages = []
            mp.setattr(pipeline.log, "info", lambda fmt, *args: messages.append(fmt % args))
            corpus = parse_corpus(entries)
        by_node = {}
        for (node, t), word in zip(lines, words):
            by_node.setdefault(node, []).append((t, event_ids[word]))
        assert list(corpus.records_by_node) == list(by_node)
        for node, records in by_node.items():
            # A stable sort: equal timestamps keep their file order.
            assert [(r.timestamp, r.event_id) for r in corpus.records_by_node[node]] == sorted(
                records, key=itemgetter(0))
        n_sorted = sum(records != sorted(records, key=itemgetter(0)) for records in by_node.values())
        assert messages == [f"sorted the records of {n_sorted} of {len(by_node)} nodes "
                            f"by timestamp"]


class TestParsedColumns:
    """parse_corpus keeps each node's lines as columns, with no object per line."""

    N_LINES = 20_000

    @pytest.fixture(scope="class")
    def entries(self):
        # Four nodes and five message shapes; node n1's lines arrive out of order.
        shapes = ("job {} started", "job {} done in {} ms", "link {} down",
                  "disk {} at {} percent", "fan {} ok")
        entries = []
        for i in range(self.N_LINES):
            node = f"n{i % 4}"
            epoch = 1_131_566_461 + i // 3 - (7 * (i % 11) if node == "n1" else 0)
            message = shapes[i % 5].format(i, i % 97)
            entries.append(RawEntry("FAULT" if i % 13 == 0 else "-", epoch, node, message))
        return entries

    def test_no_object_per_line(self, entries):
        gc.collect()
        before = len(gc.get_objects())
        tracemalloc.start()
        try:
            corpus = parse_corpus(entries)
            gc.collect()
            tracked = len(gc.get_objects()) - before
            held = tracemalloc.get_traced_memory()[0]
            corpus.records_by_node.clear()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # A LogRecord per line would add N tracked objects and ~100 B a line.
        assert tracked < self.N_LINES / 100
        assert retained <= 32 * self.N_LINES

    def test_records_are_the_per_line_records(self, entries):
        corpus = parse_corpus(entries)
        parser = DrainParser()
        want = {}
        for e in entries:
            record = LogRecord(e.epoch_seconds, e.node_id, e.is_anomalous,
                               parser.parse_message(e.message))
            want.setdefault(e.node_id, []).append(record)
        assert list(corpus.records_by_node) == list(want)
        for node, records in want.items():
            records.sort(key=attrgetter("timestamp"))  # stable, as parse_corpus sorts
            got = list(corpus.records_by_node[node])
            assert len(corpus.records_by_node[node]) == len(got)
            assert got == records
            assert {type(r) for r in got} == {LogRecord}
            assert all(list(map(type, r)) == [int, str, bool, int, int] for r in got)
        assert [r.timestamp for r in want["n1"]] != [e.epoch_seconds for e in entries
                                                     if e.node_id == "n1"]


class TestBglFixture:
    def test_train_completes(self, tmp_path, caplog):
        path = log_file_config(tmp_path, "bgl", BGL_FIXTURE)
        with caplog.at_level(logging.INFO, logger="flog.pipeline"):
            assert main(["train", "--config", str(path)]) == 0
        for name in ARTIFACTS:
            assert (tmp_path / "out" / name).exists(), name
        assert "read 24 lines" in caplog.text and "skipped 1 malformed" in caplog.text
        rows = (tmp_path / "out" / "templates.tsv").read_text(encoding="utf-8").splitlines()[1:]
        assert sum(int(row.split("\t")[2]) for row in rows) == 22
        assert any("\ufffd" in row for row in rows)


def packed_from_keys(client, config):
    """A client's `LocalData` packed from its windows' key tuples by `model.pack_keys`."""
    keys = [s.key_ids for s in client.sequences]
    labels = np.array([s.label for s in client.sequences])
    weights = class_weights_from_labels(labels) if keys else (1.0, 1.0)
    return federated.LocalData(pack_keys(keys, config), labels, weights)


class TestPackedAsCut:
    """The trainer's inputs, packed node by node as the windows are cut,
    equal those packed from the whole partitioned window lists."""

    @pytest.fixture(params=["thunderbird", "bgl", "synthetic", "more-clients-than-nodes"])
    def cfg(self, request, tmp_path):
        if request.param in ("thunderbird", "bgl"):
            fixture = {"thunderbird": THUNDERBIRD_FIXTURE, "bgl": BGL_FIXTURE}[request.param]
            return load_config(log_file_config(tmp_path, request.param, fixture))
        if request.param == "synthetic":
            cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "synthetic.yaml")
            return dataclasses.replace(cfg, output_dir=str(tmp_path / "out"))
        doc = small_doc(tmp_path / "out")  # 4 nodes over 6 clients
        doc["federated"]["k_clients"] = 6
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        return load_config(path)

    def test_equals_packing_the_partitioned_window_lists(self, cfg):
        k = cfg.federated.k_clients
        trainer = pipeline._trainer(cfg, pipeline.output_dir(cfg))
        corpus = pipeline.read_corpus(cfg)
        train, test = [], []
        for _, node_train, node_test in pipeline.node_windows(corpus, cfg):
            train += node_train
            test += node_test
        assignment = partition.round_robin_assign(list(corpus.records_by_node), k)
        clients = partition.materialize(train, assignment, k)
        config = trainer.state.config
        wanted = [(federated.LocalData.from_client(c, config), packed_from_keys(c, config))
                  for c in clients]
        assert len(trainer.local_data) == k
        assert any(c.n_samples == 0 for c in clients) == (k > len(assignment))
        for got, wants in zip(trainer.local_data, wanted, strict=True):
            for want in wants:
                assert got.windows.ids.dtype == want.windows.ids.dtype == np.int32
                np.testing.assert_array_equal(got.windows.ids, want.windows.ids)
                assert got.windows.lengths.dtype == want.windows.lengths.dtype == np.int64
                np.testing.assert_array_equal(got.windows.lengths, want.windows.lengths)
                np.testing.assert_array_equal(got.labels, want.labels)
                assert got.class_weights == want.class_weights
        want_test = pack_keys([w.key_ids for w in test], config)
        assert trainer.test_tokens.ids.dtype == np.int32
        np.testing.assert_array_equal(trainer.test_tokens.ids, want_test.ids)
        np.testing.assert_array_equal(trainer.test_tokens.lengths, want_test.lengths)
        assert trainer.test_labels == [w.label for w in test]


class TestLargeProfile:
    def test_14_clients_10_rounds_on_synthetic(self, tmp_path):
        # The large-run profile shape (14 clients, 10 rounds, 50%
        # participation) on a small synthetic corpus: one metrics row per
        # round and a fully spent linear budget. The run's accounted epsilon
        # stays far below its target, so no round warns.
        doc = small_doc(tmp_path / "out", n_lines=4000)
        doc["dataset"]["synthetic"]["n_nodes"] = 14
        doc["federated"].update(
            k_clients=14, rounds=10, participation_rate=0.5,
            local_epochs=1, noise_multiplier=1.0,
        )
        doc["privacy"] = {"target_epsilon": 1.0e9, "delta": 1.0e-5}
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        cfg = load_config(path)
        metrics = run_pipeline(cfg, seed=0)
        assert len(metrics) == 10
        ledger = (tmp_path / "out" / "ledger.txt").read_text()
        ledger = dict(line.split("=") for line in ledger.splitlines())
        assert float(ledger["eps_linear"]) == cfg.privacy.target_epsilon


class TestShippedConfigs:
    def test_synthetic_profile_loads(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        cfg = load_config(root / "configs" / "synthetic.yaml")
        assert cfg.federated.k_clients == 4
        assert cfg.federated.rounds == 5
        assert cfg.dataset.synthetic.n_lines == 50_000  # what `flog synth` writes

    def test_file_profiles_validate_structure(self):
        # Loading reads only the config file, so the profiles load as
        # shipped without their datasets.
        root = Path(__file__).resolve().parent.parent
        for name, path in [("thunderbird.yaml", "data/Thunderbird.log"),
                           ("bgl.yaml", "data/BGL.log")]:
            cfg = load_config(root / "configs" / name)
            assert cfg.dataset.path == path
            assert cfg.federated.clip_bound == 1.0

    @pytest.mark.parametrize("name,eps_rdp", [("thunderbird.yaml", 62546.05),
                                              ("bgl.yaml", 18.786)])
    def test_file_profiles_account_without_dataset(self, tmp_path, monkeypatch, capsys,
                                                   name, eps_rdp):
        monkeypatch.chdir(tmp_path)  # no data/ here
        path = Path(__file__).resolve().parent.parent / "configs" / name
        with pytest.warns(UserWarning, match="exceeds target"):  # both exceed 10
            assert main(["account", "--config", str(path)]) == 0
        ledger = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        cfg = load_config(path)
        expected = epsilon_for(cfg.federated.noise_multiplier, cfg.federated.rounds,
                               cfg.privacy.delta)[0]
        assert float(ledger["eps_rdp"]) == expected
        assert expected == pytest.approx(eps_rdp, abs=0.01)
        assert not list(tmp_path.iterdir())


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

    def test_partition_and_train_write_the_same_assignment(self, cfg_path, tmp_path):
        assert main(["partition", "--config", str(cfg_path), "--out", str(tmp_path / "p")]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "t")]) == 0
        dump = (tmp_path / "p" / "assignment.tsv").read_bytes()
        assert dump == (tmp_path / "t" / "assignment.tsv").read_bytes()
        assert dump.count(b"\n") == 5  # header + 4 nodes

    def test_partition_without_nodes_names_partition_stage(self, tmp_path, capsys):
        log_path = tmp_path / "malformed.log"
        log_path.write_text("not a log line\n- 12 also not\n", encoding="utf-8")
        path = log_file_config(tmp_path, "thunderbird", log_path)
        assert main(["partition", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "stage 'partition' failed: nodes must be non-empty\n"

    # An --out naming a file cannot become the output directory, and an
    # artifact path that is a directory cannot be written.
    @pytest.mark.parametrize("command,artifact", [
        ("synth", None), ("parse", None), ("partition", None), ("train", None),
        ("synth", "synthetic.log"), ("parse", "templates.tsv"),
        ("partition", "assignment.tsv"), ("train", "templates.tsv"),
        ("train", "assignment.tsv"), ("train", "rounds.csv"), ("train", "ledger.txt"),
        ("train", "model.ckpt"),
    ])
    def test_unwritable_output_fails_in_one_line(self, cfg_path, tmp_path, capsys,
                                                 command, artifact):
        out = tmp_path / "alt"
        if artifact is None:
            out.write_text("")
            blocked = out
        else:
            blocked = out / artifact
            blocked.mkdir(parents=True)
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"'{blocked}'" in err, err
        assert "configuration error" not in err

    def test_negative_seed_writes_nothing(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "neg"
        assert main(["train", "--config", str(cfg_path), "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "configuration error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    # Only train takes a seed, and account reads and writes no output directory.
    @pytest.mark.parametrize("command,option", [
        ("synth", "--seed"), ("parse", "--seed"), ("partition", "--seed"),
        ("evaluate", "--seed"), ("account", "--seed"), ("account", "--out"),
    ])
    def test_option_a_subcommand_does_not_use_is_usage_error(self, cfg_path, tmp_path,
                                                             command, option):
        with pytest.raises(SystemExit) as info:
            main([command, "--config", str(cfg_path), option, "1"])
        assert info.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_parse_and_train_fail_alike_on_unwritable_templates(self, cfg_path, tmp_path,
                                                                 capsys):
        (tmp_path / "out" / "templates.tsv").mkdir(parents=True)
        errors = []
        for command in ("parse", "train"):
            assert main([command, "--config", str(cfg_path)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("stage 'parse' failed: ")
        assert not (tmp_path / "out" / "assignment.tsv").exists()

    def test_train_then_evaluate(self, cfg_path, tmp_path, capsys):
        assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        # The reloaded checkpoint scores the test split exactly as the last
        # training round did, so its re-scored row is that round's row, in
        # every column.
        lines = (tmp_path / "out" / "rounds.csv").read_text().splitlines()
        assert capsys.readouterr().out.splitlines() == [CSV_HEADER, lines[-1]]
        assert lines[0] == CSV_HEADER and lines[-1].count(",") == CSV_HEADER.count(",")

    def test_evaluate_without_rounds_csv_fails(self, cfg_path, tmp_path, capsys):
        assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
        (tmp_path / "out" / "rounds.csv").unlink()
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path)]) == 1
        assert "no rounds.csv" in capsys.readouterr().err

    def test_evaluate_on_header_only_rounds_csv_fails(self, cfg_path, tmp_path, capsys):
        assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
        rounds_csv = tmp_path / "out" / "rounds.csv"
        header = rounds_csv.read_text(encoding="utf-8").splitlines()[0]
        rounds_csv.write_text(header + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert err == f"{rounds_csv} has no completed round\n"
        assert out == ""

    def test_evaluate_on_damaged_checkpoint_names_load_stage(self, cfg_path, tmp_path,
                                                             monkeypatch, capsys):
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
            assert main(["evaluate", "--config", str(cfg_path)]) == 1
            out, err = capsys.readouterr()
            assert f"stage 'load' failed: {ckpt}: " in err, damaged[:8]
            assert "configuration error" not in err
            assert out == ""

    # A last row that is not numbers, and a file without its second column,
    # which the error names as the file's own header does.
    @pytest.mark.parametrize("damage,named", [
        (lambda rows: [*rows[:-1], ["x", "y", "z"]], lambda header: "'x'"),
        (lambda rows: [r[:1] + r[2:] for r in rows], lambda header: header[1]),
    ], ids=["row", "column"])
    def test_evaluate_on_unparsable_last_round_names_load_stage(self, cfg_path, tmp_path,
                                                                capsys, damage, named):
        assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
        rounds_csv = tmp_path / "out" / "rounds.csv"
        rows = [line.split(",") for line in rounds_csv.read_text(encoding="utf-8").splitlines()]
        rounds_csv.write_text("".join(",".join(r) + "\n" for r in damage(rows)), encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert f"stage 'load' failed: {rounds_csv}: " in err
        assert named(rows[0]) in err
        assert "configuration error" not in err
        assert out == ""

    def test_evaluate_on_non_finite_scores_names_evaluate_stage(self, cfg_path, monkeypatch,
                                                                capsys):
        assert main(["train", "--config", str(cfg_path), "--seed", "1"]) == 0
        monkeypatch.setattr("flog.model.score", lambda state, packed: [np.nan] * len(packed))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("stage 'evaluate' failed: ") and "scores are not finite" in err
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
        assert main(["account", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "eps_rdp=" in out and "rounds=2" in out

    def test_out_override(self, cfg_path, tmp_path):
        alt = tmp_path / "alt"
        assert main(["train", "--config", str(cfg_path), "--out", str(alt)]) == 0
        assert (alt / "model.ckpt").exists()
        # Every subcommand that writes takes --out the same way.
        for command, artifact in [("synth", "synthetic.log"), ("parse", "templates.tsv"),
                                  ("partition", "assignment.tsv")]:
            assert main([command, "--config", str(cfg_path), "--out", str(alt)]) == 0
            assert (alt / artifact).exists()
        assert not (tmp_path / "out").exists()

    # An --out that a shell expanded from an unset variable names no directory.
    @pytest.mark.parametrize("command", ["synth", "parse", "partition", "train", "evaluate"])
    def test_empty_out_is_usage_error(self, cfg_path, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main([command, "--config", str(cfg_path), "--out", ""])
        assert info.value.code == 2
        assert "argument --out: must name a directory" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.yaml"]

    # An empty output_dir in the config names no directory either.
    @pytest.mark.parametrize("command", ["synth", "parse", "partition", "train"])
    def test_empty_output_dir_fails_at_load(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({**small_doc(tmp_path), "output_dir": ""}))
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: output_dir must name a directory, got ''\n")
        assert sorted(os.listdir(tmp_path)) == ["cfg.yaml"]

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

    def test_help_describes_each_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for name, fn in _COMMANDS.items():
            [line] = [line for line in lines if line.split()[:1] == [name]]
            # Its docstring's first words: help text wraps at the terminal width.
            assert line.split()[1:4] == fn.__doc__.split()[:3], name

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
