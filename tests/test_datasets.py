"""Dataset decoding, synthetic generation, and log file reading."""

import hashlib
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from flog.datasets import (
    LineParseError,
    RawEntry,
    SyntheticCorpus,
    SyntheticSpec,
    decode_line,
    encode_line,
    read_log_file,
    transition_cdf,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"

TBIRD_LINE = (
    "- 1131566461 2005.11.09 dn228 Nov 9 12:01:01 dn228/dn228 "
    "crond(pam_unix)[2915]: session closed for user root"
)


class TestDecode:
    def test_thunderbird_normal_line(self):
        e = decode_line(TBIRD_LINE)
        assert e.label_field == "-"
        assert not e.is_anomalous
        assert e.epoch_seconds == 1131566461
        assert e.node_id == "dn228"
        assert e.message == "session closed for user root"

    def test_non_hyphen_label_is_anomalous(self):
        line = TBIRD_LINE.replace("- ", "ALERT ", 1)
        e = decode_line(line)
        assert e.label_field == "ALERT"
        assert e.is_anomalous

    def test_bgl_layout(self):
        line = (
            "APPREAD 1117869872 2005.06.04 R27-M1-N4-I:J18-U11 "
            "2005-06-04-00.24.32.432192 R27-M1-N4-I:J18-U11 RAS APP FATAL "
            "ciod: failed to read message prefix"
        )
        e = decode_line(line)
        assert e.is_anomalous
        assert e.node_id == "R27-M1-N4-I:J18-U11"
        assert e.message == "ciod: failed to read message prefix"

    def test_message_keeps_internal_whitespace(self):
        # The message is the rest of the line: header whitespace and trailing
        # whitespace go, internal whitespace stays, and splitting it gives
        # the tokens after the header.
        line = TBIRD_LINE.replace(" dn228 Nov", "\tdn228  Nov").replace(
            "session closed", "session \t closed") + " \t\n"
        e = decode_line(line)
        assert e.node_id == "dn228"
        assert e.message == "session \t closed for user root"
        assert e.message.split() == line.split()[9:]
        with pytest.raises(LineParseError, match="expected more than 9 tokens, got 9"):
            decode_line(" ".join(line.split()[:9]) + " \t\n")

    def test_malformed_raises(self):
        with pytest.raises(LineParseError, match="expected more than 9 tokens, got 2"):
            decode_line("too short")

    def test_bad_epoch(self):
        # int() also reads underscores, a plus sign and Arabic-Indic digits,
        # which no log writes.
        for field in ("notanumber", "1_131_566_461", "+1131566461", "١١٣١٥٦٦٤٦١"):
            with pytest.raises(LineParseError, match="bad epoch field"):
                decode_line(TBIRD_LINE.replace("1131566461", field))

    def test_epoch_outside_int64_is_malformed(self):
        # Parsed records keep epochs in an int64 column.
        top = decode_line(TBIRD_LINE.replace("1131566461", str(2**63 - 1)))
        assert top.epoch_seconds == 2**63 - 1
        for epoch in (-1, 2**63):
            with pytest.raises(LineParseError, match="outside"):
                decode_line(TBIRD_LINE.replace("1131566461", str(epoch)))

    def test_entry_is_an_immutable_record(self):
        e = decode_line(TBIRD_LINE)
        assert type(e) is RawEntry
        assert e == RawEntry(label_field="-", epoch_seconds=1131566461, node_id="dn228",
                             message="session closed for user root")
        assert not RawEntry("-", 0, "n", "m").is_anomalous
        assert RawEntry("FAILURE", 0, "n", "m").is_anomalous
        with pytest.raises(AttributeError):
            e.node_id = "dn229"

    def test_encode_decode_round_trip(self):
        entry = RawEntry("-", 1131566461, "node007", "daemon started status ok")
        again = decode_line(encode_line(entry))
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


def corpus_digest(spec):
    """sha256 of the generated corpus, one tab-separated entry a line."""
    h = hashlib.sha256()
    for e in SyntheticCorpus(spec):
        h.update(f"{e.label_field}\t{e.epoch_seconds}\t{e.node_id}\t{e.message}\n".encode())
    return h.hexdigest()


class TestSynthetic:
    def test_golden_digests(self):
        # Pins the corpus, and with it the generator's random stream, draw
        # for draw. The first spec is configs/synthetic.yaml's. In the second,
        # burst_every is 20 and node 7's bursts start at its 17th line, past
        # burst_every - mean_burst_length.
        shipped = small_spec(n_templates=20, n_nodes=8, n_lines=50000,
                             anomaly_template_ids=frozenset({17, 18, 19}), seed=7,
                             mean_burst_length=40, mean_gap_seconds=8.0)
        late_phase = small_spec(n_nodes=8, n_lines=2000, anomaly_rate=0.5, mean_burst_length=10)
        assert corpus_digest(shipped) == (
            "be9599bfa72e5dc212aa6e13548a1528f8466a64752a1577ea9d7ab06a234632")
        assert corpus_digest(late_phase) == (
            "1fc22b1a1d77c5f19a5dabb0f76f50dd6346c88f48a1f361023a0ae3b97162ec")

    def test_cdf_draws_are_rng_choice(self):
        # Rows of several sizes and concentrations, one with exact zeros (equal
        # CDF steps); the search must pick rng.choice's index from the same
        # uniform, and leave the generator in the same state.
        dirichlet = np.random.default_rng(0).dirichlet
        trans = [dirichlet(np.full(n, a), size=n)
                 for n, a in ((1, 1.0), (2, 1.0), (17, 1.0), (17, 0.05), (300, 1.0))]
        trans.append(np.array([[0.0, 0.5, 0.0, 0.5, 0.0]]))
        cdfs = [transition_cdf(t) for t in trans]
        # Sampling cannot see a one-ulp change in a CDF step, so also pin each
        # row to the CDF Generator.choice computes, p.cumsum() / its last entry.
        for t, cdf in zip(trans, cdfs):
            assert cdf == [(row.cumsum() / row.cumsum()[-1]).tolist() for row in t]
        reference, searched = np.random.default_rng(11), np.random.default_rng(11)
        for i in range(24000):
            t, cdf = trans[i % len(trans)], cdfs[i % len(trans)]
            row = i // len(trans) % len(t)
            assert bisect_right(cdf[row], searched.random()) == reference.choice(len(t[row]), p=t[row])
        assert searched.bit_generator.state == reference.bit_generator.state

    def test_burst_schedule(self):
        # Each node's lines come in a fixed order (line i belongs to node
        # i % n_nodes), so its k-th line in time is its k-th generated line.
        spec = small_spec(n_nodes=8, n_lines=2000, anomaly_rate=0.5, mean_burst_length=10)
        by_node = {}
        for e in SyntheticCorpus(spec):
            by_node.setdefault(e.node_id, []).append(e.is_anomalous)
        flags = by_node["node007"]
        assert flags[:17] == [False] * 17
        assert flags[17:37] == [True] * 10 + [False] * 10

    def test_deterministic(self):
        assert list(SyntheticCorpus(small_spec())) == list(SyntheticCorpus(small_spec()))

    def test_seed_changes_stream(self):
        assert list(SyntheticCorpus(small_spec())) != list(SyntheticCorpus(small_spec(seed=4)))

    def test_realized_rate_within_20_percent(self):
        for seed in (0, 1, 2):
            spec = small_spec(seed=seed)
            entries = list(SyntheticCorpus(spec))
            rate = sum(e.is_anomalous for e in entries) / len(entries)
            assert 0.8 * spec.anomaly_rate <= rate <= 1.2 * spec.anomaly_rate

    def test_labels_match_anomaly_flag(self):
        for e in SyntheticCorpus(small_spec()):
            assert e.is_anomalous == (e.label_field != "-")

    def test_time_sorted(self):
        entries = list(SyntheticCorpus(small_spec()))
        times = [e.epoch_seconds for e in entries]
        assert times == sorted(times)

    def test_node_count(self):
        spec = small_spec()
        nodes = {e.node_id for e in SyntheticCorpus(spec)}
        assert len(nodes) == spec.n_nodes

    def test_lines_round_trip_through_decoder(self):
        for e in SyntheticCorpus(small_spec(n_lines=200)):
            assert decode_line(encode_line(e)) == e

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(anomaly_rate=0.0)
        with pytest.raises(ValueError):
            small_spec(anomaly_template_ids=frozenset())
        with pytest.raises(ValueError):
            small_spec(anomaly_template_ids=frozenset({10}))
        with pytest.raises(ValueError, match="must leave at least one template normal"):
            small_spec(anomaly_template_ids=frozenset(range(10)))
        with pytest.raises(ValueError):
            small_spec(n_nodes=0)


class TestReadLogFile:
    def test_skips_malformed_and_counts_lines(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text(TBIRD_LINE + "\ngarbage\n" + TBIRD_LINE + "\n\n")
        counts = {}
        out = list(read_log_file(path, counts=counts))
        assert out == [decode_line(TBIRD_LINE)] * 2
        assert counts == {"lines": 4, "malformed": 1}

    def test_counts_lines_and_malformed_lines(self):
        fixture = FIXTURES / "thunderbird_small.log"
        counts = {}
        out = list(read_log_file(fixture, counts=counts))
        assert counts == {"lines": 30, "malformed": 1}
        assert len(out) == 28  # minus one malformed and one blank line
        assert len(list(read_log_file(fixture))) == 28

    def test_bgl_fixture_with_crlf_and_invalid_utf8(self):
        fixture = FIXTURES / "bgl_small.log"
        raw = fixture.read_bytes()
        assert raw.count(b"\r\n") == 24 and raw.count(b"\n") == 24
        with pytest.raises(UnicodeDecodeError):
            raw.decode("utf-8")
        counts = {}
        out = list(read_log_file(fixture, counts=counts))
        assert counts == {"lines": 24, "malformed": 1}  # the malformed line has no message
        assert len(out) == 22  # minus one malformed and one blank line
        assert not any("\r" in e.message for e in out)
        # Each invalid byte decodes to U+FFFD.
        replaced = {e.message for e in out if "\ufffd" in e.message}
        assert replaced == {
            "ciod: LOGIN chdir(/home/\ufffdt\ufffde) failed: No such file or directory"}
        labels = [e.label_field for e in out if e.is_anomalous]
        assert labels == ["KERNDTLB", "KERNDTLB", "APPREAD", "KERNDTLB"]
        assert {e.node_id for e in out} == {
            "R02-M1-N0-C:J12-U11", "R23-M0-NE-C:J05-U01", "R71-M1-N4-I:J18-U11"}

    def test_bare_carriage_return_stays_inside_its_line(self, tmp_path):
        # Lines end at LF (CRLF too); a lone CR is part of the message, and
        # Drain's split treats it as whitespace.
        header = "- 1131566461 2005.11.09 dn228 Nov 9 12:01:01 dn228/dn228 kernel:"
        path = tmp_path / "log.txt"
        path.write_bytes((f"{TBIRD_LINE}\r\n{header} disk sda\rerror code 5 retry\r\n"
                          f"{TBIRD_LINE}\r\n").encode())
        counts = {}
        out = list(read_log_file(path, counts=counts))
        assert counts == {"lines": 3, "malformed": 0}
        assert [e.message for e in out] == [
            decode_line(TBIRD_LINE).message, "disk sda\rerror code 5 retry",
            decode_line(TBIRD_LINE).message]

    def test_max_samples_prefix_cut(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("\n".join([TBIRD_LINE] * 5) + "\n")
        out = list(read_log_file(path, max_samples=3))
        assert len(out) == 3
