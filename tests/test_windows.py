"""Sliding windows: brute-force start enumeration oracle, OR labels, truncation."""

import numpy as np
import pytest

from flog.drain import LogRecord
from flog.windows import WindowConfig, WindowSequence, build_windows


def mk_records(times, anomalous=None, node="n0"):
    anomalous = anomalous or [False] * len(times)
    return [
        LogRecord(timestamp=t, node_id=node, is_anomalous=a, event_id=i, raw_content_hash=0)
        for i, (t, a) in enumerate(zip(times, anomalous))
    ]


def brute_force(records, cfg):
    """Oracle: enumerate every grid start offset directly."""
    if not records:
        return []
    times = [r.timestamp for r in records]
    t0, t_last = times[0], times[-1]
    out = []
    start = t0
    while start <= t_last:
        members = [r for r in records if start <= r.timestamp < start + cfg.window_seconds]
        if len(members) >= cfg.min_logs_per_window:
            keys = tuple(r.event_id for r in members[-cfg.max_sequence_length:])
            out.append(
                WindowSequence(
                    node_id=records[0].node_id,
                    start_time=start,
                    key_ids=keys,
                    label=int(any(r.is_anomalous for r in members)),
                )
            )
        start += cfg.step_seconds
    return out


class TestBruteForceOracle:
    def test_matches_oracle_on_randomized_streams(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            times = np.sort(rng.integers(0, 600, size=n)).tolist()
            anomalous = (rng.random(n) < 0.2).tolist()
            step = int(rng.integers(5, 10))
            cfg = WindowConfig(
                window_seconds=step + int(rng.integers(0, 290)),
                step_seconds=step,
                min_logs_per_window=int(rng.integers(1, 5)),
                max_sequence_length=int(rng.integers(1, 50)),
            )
            records = mk_records(times, anomalous)
            assert build_windows(records, cfg) == brute_force(records, cfg)

    def test_matches_oracle_on_long_clustered_spans(self):
        # Spans of ~10^4 steps with records in a few clusters, so most of the
        # grid is empty, and windows that are not a multiple of the step.
        rng = np.random.default_rng(1)
        for _ in range(20):
            step = int(rng.integers(2, 8))
            window = step * int(rng.integers(1, 40)) + int(rng.integers(1, step))
            span = step * int(rng.integers(5_000, 15_000))
            times = []
            for center in rng.integers(0, span, size=int(rng.integers(1, 5))):
                spread = int(rng.integers(1, 3 * window))
                times += (center + rng.integers(0, spread, size=int(rng.integers(1, 10)))).tolist()
            times = sorted(times + [0, span])
            cfg = WindowConfig(
                window_seconds=window,
                step_seconds=step,
                min_logs_per_window=int(rng.integers(1, 4)),
                max_sequence_length=int(rng.integers(1, 8)),
            )
            records = mk_records(times, (rng.random(len(times)) < 0.2).tolist())
            assert build_windows(records, cfg) == brute_force(records, cfg)

    def test_documented_small_case(self):
        # 10 records over 0-600 s, window 300, step 60, min 5.
        times = [0, 30, 90, 150, 290, 300, 390, 450, 520, 600]
        cfg = WindowConfig(window_seconds=300, step_seconds=60, min_logs_per_window=5)
        records = mk_records(times)
        assert build_windows(records, cfg) == brute_force(records, cfg)


class TestLabels:
    def test_one_anomaly_among_many_labels_window(self):
        times = list(range(50))
        anomalous = [False] * 50
        anomalous[17] = True
        cfg = WindowConfig(window_seconds=100, step_seconds=100)
        ws = build_windows(mk_records(times, anomalous), cfg)
        assert len(ws) == 1 and ws[0].label == 1

    def test_all_normal_is_zero(self):
        cfg = WindowConfig(window_seconds=10, step_seconds=10)
        ws = build_windows(mk_records([1, 2, 3]), cfg)
        assert all(w.label == 0 for w in ws)


class TestTruncation:
    def test_keeps_most_recent_keys(self):
        times = list(range(20))
        cfg = WindowConfig(window_seconds=100, step_seconds=100, max_sequence_length=5)
        ws = build_windows(mk_records(times), cfg)
        assert ws[0].key_ids == (15, 16, 17, 18, 19)


class TestWindowSequence:
    def test_positional_construction(self):
        # As the benchmark's training grid builds its windows.
        w = WindowSequence("grid", 3, (1, 2), 1)
        assert (w.node_id, w.start_time, w.key_ids, w.label) == ("grid", 3, (1, 2), 1)
        assert w == WindowSequence(node_id="grid", start_time=3, key_ids=(1, 2), label=1)
        with pytest.raises(AttributeError):
            w.label = 0

    def test_build_windows_returns_window_sequences(self):
        cfg = WindowConfig(window_seconds=10, step_seconds=5)
        ws = build_windows(mk_records([0, 4, 12]), cfg)
        assert ws and all(type(w) is WindowSequence for w in ws)
        assert all(type(w.key_ids) is tuple for w in ws)


class TestEdges:
    def test_empty_input(self):
        cfg = WindowConfig(window_seconds=10, step_seconds=10)
        assert build_windows([], cfg) == []

    def test_sparse_node_gets_only_its_records_windows(self):
        # A grid walk would take 10^9 steps here.
        cfg = WindowConfig(window_seconds=300, step_seconds=1)
        ws = build_windows(mk_records([0, 10**9], [False, True]), cfg)
        assert ws == [WindowSequence("n0", 0, (0,), 0)] + [
            WindowSequence("n0", start, (1,), 1) for start in range(10**9 - 299, 10**9 + 1)
        ]

    def test_unsorted_rejected(self):
        cfg = WindowConfig(window_seconds=10, step_seconds=10)
        with pytest.raises(ValueError):
            build_windows(mk_records([5, 3]), cfg)

    def test_mixed_nodes_rejected(self):
        cfg = WindowConfig(window_seconds=10, step_seconds=10)
        records = mk_records([1]) + mk_records([2], node="n1")
        with pytest.raises(ValueError):
            build_windows(records, cfg)

    def test_min_logs_filters(self):
        cfg = WindowConfig(window_seconds=10, step_seconds=10, min_logs_per_window=3)
        assert build_windows(mk_records([0, 1]), cfg) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(window_seconds=0, step_seconds=1)
        with pytest.raises(ValueError):
            WindowConfig(window_seconds=5, step_seconds=10)
        with pytest.raises(ValueError):
            WindowConfig(window_seconds=5, step_seconds=5, min_logs_per_window=0)
