"""Dataset decoding, synthetic generation, and ingestion filters."""

from pathlib import Path

import pytest

from flog.datasets import (
    LineParseError,
    RawEntry,
    SyntheticSpec,
    decode_line,
    encode_line,
    filter_min_anomaly_rate,
    generate_synthetic,
    read_log_file,
)

TBIRD_LINE = (
    "- 1131566461 2005.11.09 dn228 Nov 9 12:01:01 dn228/dn228 "
    "crond(pam_unix)[2915]: session closed for user root"
)


class TestDecode:
    def test_thunderbird_normal_line(self):
        e = decode_line(TBIRD_LINE, "thunderbird")
        assert e.label_field == "-"
        assert not e.is_anomalous
        assert e.epoch_seconds == 1131566461
        assert e.node_id == "dn228"
        assert e.message == "session closed for user root"

    def test_non_hyphen_label_is_anomalous(self):
        line = TBIRD_LINE.replace("- ", "ALERT ", 1)
        e = decode_line(line, "thunderbird")
        assert e.label_field == "ALERT"
        assert e.is_anomalous

    def test_bgl_layout(self):
        line = (
            "APPREAD 1117869872 2005.06.04 R27-M1-N4-I:J18-U11 "
            "2005-06-04-00.24.32.432192 R27-M1-N4-I:J18-U11 RAS APP FATAL "
            "ciod: failed to read message prefix"
        )
        e = decode_line(line, "bgl")
        assert e.is_anomalous
        assert e.node_id == "R27-M1-N4-I:J18-U11"
        assert e.message == "ciod: failed to read message prefix"

    def test_malformed_raises_with_line_number(self):
        with pytest.raises(LineParseError) as exc:
            decode_line("too short", "thunderbird", line_number=17)
        assert exc.value.line_number == 17

    def test_bad_epoch(self):
        bad = TBIRD_LINE.replace("1131566461", "notanumber")
        with pytest.raises(LineParseError):
            decode_line(bad, "thunderbird")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            decode_line(TBIRD_LINE, "hdfs")

    def test_encode_decode_round_trip(self):
        entry = RawEntry("-", 1131566461, "node007", "daemon started status ok")
        again = decode_line(encode_line(entry), "thunderbird")
        assert again == entry


def small_spec(**kw):
    base = dict(
        n_templates=10,
        n_nodes=4,
        n_lines=12000,
        anomaly_rate=0.05,
        anomaly_template_ids=frozenset({8, 9}),
        seed=3,
    )
    base.update(kw)
    return SyntheticSpec(**base)


class TestSynthetic:
    def test_deterministic(self):
        assert generate_synthetic(small_spec()) == generate_synthetic(small_spec())

    def test_seed_changes_stream(self):
        assert generate_synthetic(small_spec()) != generate_synthetic(small_spec(seed=4))

    def test_realized_rate_within_20_percent(self):
        for seed in (0, 1, 2):
            spec = small_spec(seed=seed)
            entries = generate_synthetic(spec)
            rate = sum(e.is_anomalous for e in entries) / len(entries)
            assert 0.8 * spec.anomaly_rate <= rate <= 1.2 * spec.anomaly_rate

    def test_labels_match_anomaly_flag(self):
        for e in generate_synthetic(small_spec()):
            assert e.is_anomalous == (e.label_field != "-")

    def test_time_sorted(self):
        entries = generate_synthetic(small_spec())
        times = [e.epoch_seconds for e in entries]
        assert times == sorted(times)

    def test_node_count(self):
        spec = small_spec()
        nodes = {e.node_id for e in generate_synthetic(spec)}
        assert len(nodes) == spec.n_nodes

    def test_lines_round_trip_through_decoder(self):
        for e in generate_synthetic(small_spec(n_lines=200)):
            assert decode_line(encode_line(e), "thunderbird") == e

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(anomaly_rate=0.0)
        with pytest.raises(ValueError):
            small_spec(anomaly_template_ids=frozenset())
        with pytest.raises(ValueError):
            small_spec(anomaly_template_ids=frozenset({10}))
        with pytest.raises(ValueError):
            small_spec(n_nodes=0)


class TestReadLogFile:
    def test_skips_malformed_and_counts_lines(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text(TBIRD_LINE + "\ngarbage\n" + TBIRD_LINE + "\n\n")
        out = list(read_log_file(path, "thunderbird"))
        assert len(out) == 2
        assert [ln for _, ln in out] == [1, 3]

    def test_counts_lines_and_malformed_lines(self):
        fixture = Path(__file__).resolve().parent / "fixtures" / "thunderbird_small.log"
        counts = {}
        out = list(read_log_file(fixture, "thunderbird", counts=counts))
        assert counts == {"lines": 30, "malformed": 1}
        assert len(out) == 28  # minus one malformed and one blank line
        assert len(list(read_log_file(fixture, "thunderbird"))) == 28

    def test_max_samples_prefix_cut(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("\n".join([TBIRD_LINE] * 5) + "\n")
        out = list(read_log_file(path, "thunderbird", max_samples=3))
        assert len(out) == 3


class TestMinAnomalyRateFilter:
    def test_drops_quiet_nodes(self):
        mk = lambda node, anom: RawEntry("A" if anom else "-", 0, node, "m")
        entries = [mk("n0", True), mk("n0", False), mk("n1", False), mk("n1", False)]
        kept = filter_min_anomaly_rate(entries, 0.25)
        assert {e.node_id for e in kept} == {"n0"}

    def test_zero_threshold_keeps_all(self):
        entries = [RawEntry("-", 0, "n0", "m")]
        assert filter_min_anomaly_rate(entries, 0.0) == entries
