"""YAML run configuration: loading, validation, defaults, round-trip."""

import copy
import math
import re
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
import yaml

from flog.cli import main
from flog.config import RunConfig, dump_config, load_config

MINIMAL = {
    "dataset": {
        "format": "synthetic",
        "synthetic": {
            "n_templates": 10,
            "n_nodes": 4,
            "n_lines": 1000,
            "anomaly_rate": 0.05,
            "anomaly_template_ids": [8, 9],
            "seed": 1,
        },
    },
    "window": {"window_seconds": 120, "step_seconds": 30},
    "federated": {"k_clients": 4, "rounds": 5},
}

# A realistic large-run profile: 14 clients, 10 rounds, 50% participation,
# LoRA r=8 alpha=32, 5-minute windows on 1-minute steps.
REALISTIC = {
    "dataset": {
        "format": "synthetic",
        "synthetic": {
            "n_templates": 30,
            "n_nodes": 28,
            "n_lines": 5000,
            "anomaly_rate": 0.05,
            "anomaly_template_ids": [27, 28, 29],
            "seed": 0,
        },
    },
    "window": {
        "window_seconds": 300,
        "step_seconds": 60,
        "min_logs_per_window": 5,
        "max_sequence_length": 128,
    },
    "model": {
        "hidden_dim": 16,
        "head_dim": 8,
        "n_heads": 2,
        "n_layers": 1,
        "lora_rank": 8,
        "lora_alpha": 32.0,
        "lora_dropout": 0.1,
        "ffn_dim": 32,
    },
    "federated": {
        "k_clients": 14,
        "rounds": 10,
        "participation_rate": 0.5,
        "local_epochs": 10,
        "learning_rate": 2.0e-5,
        "proximal_mu": 0.01,
        "clip_bound": 1.0,
        "noise_multiplier": 0.01,
        "batch_size": 8,
        "weight_decay": 0.01,
        "warmup_ratio": 0.1,
        "grad_accum_steps": 2,
        "max_grad_norm": 1.0,
    },
    "privacy": {"target_epsilon": 10.0, "delta": 1.0e-5},
    "evaluation": {"test_fraction": 0.2},
    "output_dir": "out",
}


def write(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


class TestLoad:
    def test_minimal_uses_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert isinstance(cfg, RunConfig)
        assert cfg.federated.proximal_mu == 0.01
        assert cfg.privacy.target_epsilon == 10.0
        assert cfg.evaluation.test_fraction == 0.2

    def test_anomaly_ids_become_frozenset(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.dataset.synthetic.anomaly_template_ids == frozenset({8, 9})

    def test_anomaly_ids_must_be_a_list_of_integers(self, tmp_path, capsys):
        for ids in (5, "8, 9", [8, "9"], [8.0, 9]):
            synth = {**MINIMAL["dataset"]["synthetic"], "anomaly_template_ids": ids}
            path = write(tmp_path, {**MINIMAL, "dataset": {"format": "synthetic",
                                                           "synthetic": synth}})
            with pytest.raises(ValueError, match="anomaly_template_ids must be a list"):
                load_config(path)
            assert main(["account", "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert "configuration error: dataset.synthetic.anomaly_template_ids" in err

    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = dict(MINIMAL, typo_section={})
        with pytest.raises(ValueError, match=r"unknown key\(s\) in top level"):
            load_config(write(tmp_path, doc))

    def test_unknown_section_key_rejected(self, tmp_path):
        doc = {**MINIMAL, "federated": {"k_clients": 2, "rounds": 1, "lr": 0.1}}
        with pytest.raises(ValueError, match="unknown key"):
            load_config(write(tmp_path, doc))

    def test_key_given_twice_rejected(self, tmp_path, monkeypatch, capsys):
        # PyYAML keeps the last of two equal keys: a repeated section would
        # drop every key the first one set.
        monkeypatch.chdir(tmp_path)
        text = yaml.safe_dump(MINIMAL)
        section = text + "federated: {k_clients: 2, rounds: 1}\n"
        key = text.replace("  rounds: 5\n", "  rounds: 5\n  rounds: 6\n")
        path = tmp_path / "cfg.yaml"
        for doc, name in [(section, "federated"), (key, "rounds")]:
            first, second = [i + 1 for i, line in enumerate(doc.splitlines())
                             if line.lstrip().startswith(f"{name}:")]
            path.write_text(doc)
            assert main(["train", "--config", str(path)]) == 1
            assert capsys.readouterr().err == (
                f"configuration error: cannot load {path}: "
                f"key '{name}' given twice, at lines {first} and {second}\n")
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    def test_missing_required_key_rejected(self, tmp_path):
        doc = {**MINIMAL, "federated": {"k_clients": 2}}
        with pytest.raises(ValueError, match="missing required"):
            load_config(write(tmp_path, doc))
        # A present but wrongly typed value is not reported as missing.
        doc = {**MINIMAL, "federated": {"k_clients": "four", "rounds": 5}}
        with pytest.raises(ValueError, match="invalid value in federated") as err:
            load_config(write(tmp_path, doc))
        assert "missing" not in str(err.value)

    def test_nonexistent_dataset_path_rejected(self, tmp_path, capsys):
        # Loading reads only the config file; stage 'ingest' reads the dataset.
        missing = tmp_path / "nonexistent" / "file.log"
        doc = {**MINIMAL, "dataset": {"format": "thunderbird", "path": str(missing)},
               "output_dir": str(tmp_path / "out")}
        path = write(tmp_path, doc)
        assert load_config(path).dataset.path == str(missing)
        for command in ("parse", "train"):
            assert main([command, "--config", str(path)]) == 1, command
            err = capsys.readouterr().err
            assert err.startswith("stage 'ingest' failed: ") and str(missing) in err, command

    def test_non_mapping_root_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        for root in ("- just\n- a\n- list\n", "[]\n", "0\n", "false\n", "''\n"):
            path.write_text(root)
            with pytest.raises(ValueError, match="config root must be a mapping"):
                load_config(path)
        for value in ([1, 2], 5):
            for section, doc in [
                ("federated", {**MINIMAL, "federated": value}),
                ("dataset.synthetic", {**MINIMAL, "dataset": {"format": "synthetic",
                                                              "synthetic": value}}),
            ]:
                with pytest.raises(ValueError, match=f"{section} must be a mapping"):
                    load_config(write(tmp_path, doc))

    def test_all_anomaly_templates_rejected_at_load(self, tmp_path, capsys):
        synth = {**MINIMAL["dataset"]["synthetic"], "anomaly_template_ids": list(range(10))}
        doc = {**MINIMAL, "dataset": {"format": "synthetic", "synthetic": synth},
               "output_dir": str(tmp_path / "out")}
        path = write(tmp_path, doc)
        match = "dataset.synthetic.anomaly_template_ids must leave at least one template normal"
        with pytest.raises(ValueError, match=match):
            load_config(path)
        assert main(["account", "--config", str(path)]) == 1
        assert f"configuration error: {match}" in capsys.readouterr().err
        assert main(["train", "--config", str(path)]) == 1
        assert not (tmp_path / "out").exists()

    def test_section_invariants_enforced(self, tmp_path):
        bad_sections = [
            ({"privacy": {"delta": 2.0}}, "privacy.delta"),
            ({"dataset": {**MINIMAL["dataset"], "max_samples": -5}}, "max_samples"),
            ({"dataset": {**MINIMAL["dataset"], "max_samples": 0}}, "max_samples"),
            # Each dataset key belongs to the format that reads it.
            ({"dataset": {**MINIMAL["dataset"], "path": str(tmp_path)}},
             "dataset.path is read only by the thunderbird and bgl formats"),
            ({"dataset": {"format": "thunderbird", "path": str(tmp_path),
                          "synthetic": MINIMAL["dataset"]["synthetic"]}},
             "dataset.synthetic is read only by format synthetic, not by format thunderbird"),
            ({"dataset": {"format": "bgl", "path": str(tmp_path),
                          "synthetic": MINIMAL["dataset"]["synthetic"]}},
             "dataset.synthetic is read only by format synthetic, not by format bgl"),
            # The per-node anomaly-rate filter is gone, and so is its key.
            ({"dataset": {**MINIMAL["dataset"], "min_anomaly_rate_per_node": 0.5}},
             r"unknown key\(s\) in dataset: \['min_anomaly_rate_per_node'\]"),
            # Drain runs at fixed settings; their section is gone.
            ({"parser": {"tree_depth": 4}}, r"unknown key\(s\) in top level: \['parser'\]"),
        ]
        for bad, match in bad_sections:
            with pytest.raises(ValueError, match=match):
                load_config(write(tmp_path, {**MINIMAL, **bad}))

    def test_dataset_format_and_its_source_checked(self, tmp_path):
        for dataset, match in [
            ({"format": "csv", "path": str(tmp_path)},
             "dataset.format must be thunderbird|bgl|synthetic, got 'csv'"),
            ({"format": "synthetic"}, "dataset.synthetic section required for synthetic format"),
            ({"format": "bgl"}, "dataset.path required for file-based formats"),
        ]:
            with pytest.raises(ValueError, match=re.escape(match)):
                load_config(write(tmp_path, {**MINIMAL, "dataset": dataset}))

    def test_bad_model_section_is_a_configuration_error(self, tmp_path, capsys):
        # Caught at load, before any stage runs, by `flog account` too.
        for model, match in [
            ({"n_heads": 3}, r"n_heads \* head_dim must equal hidden_dim"),
            ({"n_layers": 0}, "n_layers"),
            ({"ffn_dim": 0}, "ffn_dim"),
            ({"lora_rank": 9}, "lora_rank must be <= hidden_dim / 2"),
            ({"lora_dropout": 1.0}, "lora_dropout"),
            ({"lora_rank": "4"}, "invalid value in model"),
        ]:
            path = write(tmp_path, {**MINIMAL, "model": model})
            with pytest.raises(ValueError, match=match):
                load_config(path)
            assert main(["account", "--config", str(path)]) == 1
            assert "configuration error" in capsys.readouterr().err


def with_value(doc, key, value):
    """A deep copy of `doc` with the dotted `key` set to `value`."""
    doc = copy.deepcopy(doc)
    *path, name = key.split(".")
    node = doc
    for part in path:
        node = node.setdefault(part, {})
    node[name] = value
    return doc


def annotated_fields(cls, prefix=""):
    """(dotted key, annotation, field) of every config key under the dataclass `cls`."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if "option" in f.metadata:
            continue
        yield prefix + f.name, hints[f.name], f
        inner = [a for a in (hints[f.name], *typing.get_args(hints[f.name])) if is_dataclass(a)]
        for sub in inner:
            yield from annotated_fields(sub, f"{prefix}{f.name}.")


# The YAML types each annotation accepts; every other YAML type is an error.
ACCEPTS = {int: {int}, float: {int, float}, str: {str}, frozenset[int]: {"list of int"}}
WRONG_VALUES = {bool: True, int: 7, float: 2.5, str: "7", "list of int": [7], dict: {}}


def accepted(tp):
    if is_dataclass(tp):
        return {dict}
    args = typing.get_args(tp)
    if type(None) in args:
        return accepted(args[0])
    return ACCEPTS[tp]


def scalar(tp):
    """`tp` without its `| None`."""
    args = typing.get_args(tp)
    return args[0] if type(None) in args else tp


def just_past(tp, op, bound):
    """The `tp` value nearest `bound` that fails the bound's comparison `op`."""
    if op in ("gt", "lt"):
        return tp(bound)
    step = -1 if op == "ge" else 1
    return bound + step if tp is int else math.nextafter(float(bound), step * math.inf)


class TestTyping:
    # Each key as a user would write it, with a value PyYAML gives a wrong
    # type, and the message it must give.
    BAD = [
        # PyYAML reads 1e1 as a string.
        ("privacy.target_epsilon", "1e1", "invalid value in privacy: target_epsilon"),
        ("model.lora_alpha", "3.2e1", "invalid value in model: lora_alpha"),
        ("federated.k_clients", True, "invalid value in federated: k_clients"),
        ("dataset.path", 5, "invalid value in dataset: path"),
        ("output_dir", None, "invalid value in top level: output_dir"),
        ("federated.seed", 1, "federated.seed is not a config key; set it with --seed"),
    ]

    @pytest.mark.parametrize("key,value,match", BAD)
    def test_wrong_type_is_a_configuration_error(self, tmp_path, capsys, key, value, match):
        path = write(tmp_path, with_value(MINIMAL, key, value))
        with pytest.raises(ValueError, match=match):
            load_config(path)
        assert main(["account", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {match}")

    def test_every_annotated_field_rejects_wrong_yaml_types(self, tmp_path):
        keys = {key: tp for key, tp, _ in annotated_fields(RunConfig)}
        # The six sections and 41 values within them; the seed is no key.
        assert len(keys) == 6 + 41 and "federated.seed" not in keys
        for key, tp in keys.items():
            for kind, value in WRONG_VALUES.items():
                if kind in accepted(tp):
                    continue
                path = write(tmp_path, with_value(MINIMAL, key, value))
                with pytest.raises(ValueError, match=rf"\b{key.rpartition('.')[2]} must be"):
                    load_config(path)

    def test_every_numeric_key_rejects_values_outside_its_declared_range(self, tmp_path,
                                                                        capsys):
        numeric = {key: (scalar(tp), f.metadata.get("bounds"))
                   for key, tp, f in annotated_fields(RunConfig) if scalar(tp) in (int, float)}
        assert len(numeric) == 36
        for key, (tp, bounds) in numeric.items():
            assert bounds, f"{key} declares no range"
            bad = [just_past(tp, op, b) for op, b in bounds.items()]
            if tp is float:
                bad += [math.nan, math.inf, -math.inf]
            for value in bad:
                path = write(tmp_path, with_value(MINIMAL, key, value))
                with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be "):
                    load_config(path)
        path = write(tmp_path, with_value(MINIMAL, "federated.learning_rate", math.nan))
        assert main(["account", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: federated.learning_rate must be finite, got nan\n")

    def test_values_keep_their_yaml_type(self, tmp_path):
        doc = with_value(MINIMAL, "privacy.target_epsilon", 10)
        doc = with_value(doc, "federated.learning_rate", 0.5)
        cfg = load_config(write(tmp_path, doc))
        assert type(cfg.privacy.target_epsilon) is int
        assert type(cfg.federated.learning_rate) is float
        cfg = load_config(write(tmp_path, with_value(MINIMAL, "dataset.path", None)))
        assert cfg.dataset.path is None


def stated_keys(doc, prefix=""):
    """The dotted key of every mapping entry in a loaded YAML document."""
    for name, value in doc.items():
        yield prefix + name
        if isinstance(value, dict):
            yield from stated_keys(value, f"{prefix}{name}.")


def test_every_config_key_is_stated_by_a_shipped_profile():
    # A key that no profile sets has one value in use and should be a constant.
    profiles = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
    assert profiles
    stated = set()
    for path in profiles:
        stated.update(stated_keys(yaml.safe_load(path.read_text(encoding="utf-8"))))
    keys = [key for key, _, _ in annotated_fields(RunConfig)]
    assert [key for key in keys if key not in stated] == []


class TestRoundTrip:
    def test_realistic_profile_round_trips(self, tmp_path):
        cfg = load_config(write(tmp_path, REALISTIC))
        text = dump_config(cfg)
        again = load_config(write(tmp_path, yaml.safe_load(text), "again.yaml"))
        assert again == cfg

    def test_minimal_round_trips(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        again = load_config(
            write(tmp_path, yaml.safe_load(dump_config(cfg)), "again.yaml")
        )
        assert again == cfg

    def test_dump_lists_only_config_keys(self, tmp_path):
        doc = yaml.safe_load(dump_config(load_config(write(tmp_path, REALISTIC))))
        assert "seed" not in doc["federated"]
        assert "min_anomaly_rate_per_node" not in doc["dataset"]
