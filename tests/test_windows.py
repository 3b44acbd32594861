"""Sliding windows: brute-force start enumeration oracle, OR labels, truncation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flog import model as M
from flog.drain import LogRecord
from flog.windows import NodeRecords, WindowColumns, WindowConfig, WindowSequence, build_windows


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

    @settings(deadline=None)
    @given(data=st.data(), step=st.integers(1, 4), ratio=st.integers(1, 64),
           min_logs=st.integers(1, 4), max_len=st.integers(1, 6))
    def test_columns_and_records_match_oracle(self, data, step, ratio, min_logs, max_len):
        # W/S up to 64, with gaps from none to three windows long.
        window = step * ratio + data.draw(st.integers(0, step - 1))
        gaps = data.draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 3 * window)),
                                  min_size=1, max_size=20))
        times = np.cumsum(gaps).tolist()
        anomalous = data.draw(st.lists(st.booleans(), min_size=len(times),
                                       max_size=len(times)))
        cfg = WindowConfig(window_seconds=window, step_seconds=step,
                           min_logs_per_window=min_logs, max_sequence_length=max_len)
        records = mk_records(times, anomalous)
        columns = NodeRecords("n0", times, anomalous, range(len(times)))
        assert build_windows(columns, cfg) == build_windows(records, cfg) == brute_force(
            records, cfg)

    def test_cost_does_not_grow_with_window_over_step(self):
        # W/S = 10^6: enumerating each record's windows would make 2 x 10^8
        # candidates. Window k starts at record k and holds every record after it.
        n, t0 = 20_000, 1_131_566_461
        anomalous = [False] * n
        anomalous[12_345] = True
        cfg = WindowConfig(window_seconds=10**6, step_seconds=1, max_sequence_length=4)
        ws = build_windows(NodeRecords("n0", range(t0, t0 + n), anomalous, range(n)), cfg)
        assert [w.start_time for w in ws] == list(range(t0, t0 + n))
        assert [w.key_ids for w in ws] == [tuple(range(max(k, n - 4), n)) for k in range(n)]
        assert [w.label for w in ws] == [1] * 12_346 + [0] * (n - 12_346)


class TestNodeRecords:
    def test_iterates_as_the_records_it_was_built_from(self):
        records = [LogRecord(t, "n0", a, i) for i, (t, a) in enumerate(
            [(5, False), (7, True), (7, False), (10**12, True)])]
        columns = NodeRecords.from_records(records)
        assert len(columns) == 4
        assert list(columns) == list(columns) == records
        for got, want in zip(columns, records):
            assert type(got) is LogRecord
            assert list(map(type, got)) == [int, str, bool, int, int]
            assert got.raw_content_hash == 0
            assert got.event_id is want.event_id

    def test_empty(self):
        assert len(NodeRecords("n0")) == 0 and list(NodeRecords("n0")) == []
        cfg = WindowConfig(window_seconds=10, step_seconds=10)
        assert build_windows(NodeRecords("n0"), cfg) == []


class TestWindowColumns:
    CONFIG = M.ModelConfig(vocab_size=12, hidden_dim=8, head_dim=8, n_heads=1, n_layers=1,
                           lora_rank=2, lora_alpha=16.0, lora_dropout=0.0,
                           max_sequence_length=4, ffn_dim=12)

    def test_windows_of_several_nodes_pack_as_pack_keys(self):
        nodes = [[WindowSequence("a", 0, (3, 0, 9), 0), WindowSequence("a", 5, (9,), 1)],
                 [],
                 [WindowSequence("b", 2, (1, 2, 3, 4), 1)]]
        columns = WindowColumns()
        for ws in nodes:
            columns.extend(ws)
        every = [w for ws in nodes for w in ws]
        got, want = columns.pack(self.CONFIG), M.pack_keys([w.key_ids for w in every], self.CONFIG)
        assert len(columns) == len(got) == 3
        assert got.ids.dtype == want.ids.dtype == np.int32
        np.testing.assert_array_equal(got.ids, want.ids)
        assert got.lengths.dtype == want.lengths.dtype == np.int64
        np.testing.assert_array_equal(got.lengths, want.lengths)
        assert list(columns.labels) == [w.label for w in every] == [0, 1, 1]

    def test_empty(self):
        columns = WindowColumns()
        columns.extend([])
        batch = columns.pack(self.CONFIG)
        assert len(columns) == len(batch) == 0 and len(batch.ids) == 0

    def test_key_outside_the_vocabulary_is_unk(self):
        # vocab_size 12 holds the reserved ids and event ids 0 to 9.
        columns = WindowColumns()
        columns.extend([WindowSequence("a", 0, (9, 10, 2**31 - 1), 0)])
        assert columns.pack(self.CONFIG).ids.tolist() == [11, M.UNK_ID, M.UNK_ID]

    def test_overlong_window_rejected(self):
        columns = WindowColumns()
        columns.extend([WindowSequence("a", 0, (1, 2, 3, 4, 5), 0)])
        with pytest.raises(ValueError, match="longer than max_sequence_length 4"):
            columns.pack(self.CONFIG)


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

    def test_window_and_step_beyond_int64(self):
        cfg = WindowConfig(window_seconds=10**20, step_seconds=10**19)
        records = mk_records([0, 5, 10**12], [False, True, False])
        assert build_windows(records, cfg) == brute_force(records, cfg) == [
            WindowSequence("n0", 0, (0, 1, 2), 1)]

    def test_unsorted_rejected(self):
        cfg = WindowConfig(window_seconds=10, step_seconds=10)
        with pytest.raises(ValueError, match="sorted by timestamp"):
            build_windows(mk_records([5, 3]), cfg)

    def test_mixed_nodes_rejected(self):
        cfg = WindowConfig(window_seconds=10, step_seconds=10)
        records = mk_records([1]) + mk_records([2], node="n1")
        with pytest.raises(ValueError, match="single node"):
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
