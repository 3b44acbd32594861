"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions of each `flog` module with
wrappers that record a span (name, start, end, parent) or bump a counter,
and `uninstall` puts the originals back. Spans stay in memory until the
run ends. A span's self time is its duration minus its children's.
Per-sequence calls (`model.forward`, `model.backward`,
`datasets.decode_line`) only bump counters, to keep the overhead small.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


def _span_targets():
    """(owner, attribute, span name) for every public call that gets a span."""
    from flog import accountant, federated, metrics, model, partition, pipeline, windows

    return (
        (pipeline, "run_pipeline", "pipeline.run"),
        (pipeline, "load_entries", "datasets.ingest"),
        (pipeline, "parse_corpus", "drain.parse"),
        (windows, "build_windows", "windows.build"),
        (partition, "round_robin_assign", "partition.assign"),
        (partition, "materialize", "partition.materialize"),
        (federated.FederatedTrainer, "run_round", "federated.run_round"),
        (federated, "local_train", "federated.local_train"),
        (federated, "clip_update", "federated.clip"),
        (federated, "aggregate", "federated.aggregate"),
        (federated, "add_noise", "federated.noise"),
        (federated.FederatedTrainer, "evaluate_global", "federated.evaluate_global"),
        (model.ModelState, "get_trainable", "model.get_trainable"),
        (model.ModelState, "set_trainable", "model.set_trainable"),
        (model.ModelState, "save", "model.save"),
        (accountant.PrivacyLedger, "update", "accountant.update"),
        (metrics, "evaluate", "metrics.evaluate"),
    )


def grid_steps(times: list[int], step: int) -> int:
    """Grid points build_windows visits for one node: floor((t_last - t0) / step) + 1."""
    return (times[-1] - times[0]) // step + 1 if times else 0


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _span(self, name: str, fn, on_exit=None):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, t0, t1, parent)
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    def _hooks(self) -> dict:
        """Counts taken where a span ends: span name -> f(args, result)."""
        c = self.counts

        def ingest(args, res):
            c["datasets.entries"] += len(res)

        def parse(args, res):
            c["drain.lines"] += len(args[0])
            c["drain.templates"] = res.n_templates

        def build(args, res):
            c["windows.windows"] += len(res)
            c["windows.grid_steps"] += grid_steps([r.timestamp for r in args[0]],
                                                  args[1].step_seconds)

        def train(args, res):
            client, cfg = args[0], args[3]
            c["federated.sample_passes"] += client.n_samples * cfg.local_epochs
            c["federated.participant_updates"] += 1

        def evaluate(args, res):
            c["federated.eval_windows"] += len(args[0].test_tokens)

        return {"datasets.ingest": ingest, "drain.parse": parse, "windows.build": build,
                "federated.local_train": train, "federated.evaluate_global": evaluate}

    def _decode_line(self, fn):
        from flog.datasets import LineParseError

        def wrapper(*args, **kwargs):
            self.counts["datasets.decoded_lines"] += 1
            try:
                return fn(*args, **kwargs)
            except LineParseError:
                self.counts["datasets.malformed_lines"] += 1
                raise

        return wrapper

    def _forward(self, fn):
        def wrapper(state, key_ids, *args, **kwargs):
            self.counts["model.forward_calls"] += 1
            self.counts["model.seq_len_sum"] += len(key_ids)
            return fn(state, key_ids, *args, **kwargs)

        return wrapper

    def _backward(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["model.backward_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        """Replace owner.attr and every `from ... import` alias of it in flog."""
        original = getattr(owner, attr)
        holders = [owner]
        if not isinstance(owner, type):
            holders += [
                mod for name, mod in sys.modules.items()
                if name.startswith("flog.") and mod is not owner
                and getattr(mod, attr, None) is original
            ]
        for holder in holders:
            self._patched.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def install(self) -> "Tracer":
        from flog import datasets, model

        hooks = self._hooks()
        for owner, attr, name in _span_targets():
            self._patch(owner, attr, self._span(name, getattr(owner, attr), hooks.get(name)))
        self._patch(datasets, "decode_line", self._decode_line(datasets.decode_line))
        self._patch(model, "forward", self._forward(model.forward))
        self._patch(model, "backward", self._backward(model.backward))
        return self

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- reporting ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent}
                ) + "\n")

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """(total time, self time, call count) per span name."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, t0, t1, parent in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        self_time: dict[str, float] = defaultdict(float)
        for sid, (name, t0, t1, _) in enumerate(self.spans):
            self_time[name] += (t1 - t0) - child[sid]
        return total, self_time, calls

    def layer_metrics(self) -> dict[str, float]:
        total, self_time, calls = self.totals()
        c = self.counts
        lines_in = c["datasets.decoded_lines"] or c["datasets.entries"]
        return {
            "datasets.ingest_s": total["datasets.ingest"],
            "datasets.lines_per_s": lines_in / total["datasets.ingest"],
            "datasets.malformed_lines": c["datasets.malformed_lines"],
            "drain.parse_s": total["drain.parse"],
            "drain.lines_per_s": c["drain.lines"] / total["drain.parse"],
            "drain.templates": c["drain.templates"],
            "windows.build_s": total["windows.build"],
            "windows.windows": c["windows.windows"],
            "windows.grid_steps": c["windows.grid_steps"],
            "windows.useful_ratio": c["windows.windows"] / c["windows.grid_steps"],
            "partition.build_s": total["partition.assign"] + total["partition.materialize"],
            "federated.local_train_s": total["federated.local_train"],
            "federated.sample_passes": c["federated.sample_passes"],
            "federated.train_us_per_sample":
                1e6 * total["federated.local_train"] / c["federated.sample_passes"],
            "federated.participant_updates": c["federated.participant_updates"],
            "federated.dp_s": sum(
                total[n] for n in ("federated.clip", "federated.aggregate", "federated.noise")
            ),
            "federated.evaluate_s": total["federated.evaluate_global"],
            "federated.eval_us_per_window":
                1e6 * total["federated.evaluate_global"] / c["federated.eval_windows"],
            "federated.round_overhead_s": self_time["federated.run_round"],
            "model.forward_calls": c["model.forward_calls"],
            "model.backward_calls": c["model.backward_calls"],
            "model.mean_seq_len": c["model.seq_len_sum"] / c["model.forward_calls"],
            "model.trainable_copy_s":
                total["model.get_trainable"] + total["model.set_trainable"],
            "model.save_s": total["model.save"],
            "accountant.update_us_per_call":
                1e6 * total["accountant.update"] / calls["accountant.update"],
            "metrics.evaluate_s": total["metrics.evaluate"],
        }
