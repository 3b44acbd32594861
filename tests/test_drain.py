"""Template mining: similarity, routing, merging, masking, overflow, memo."""

import itertools
import random
import sys
from operator import attrgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flog.drain import (
    WILDCARD,
    DrainParser,
    LogRecord,
    LogTemplate,
    ParserConfig,
    preprocess_line,
    seq_similarity,
    write_template_table,
)


class ScanParser(DrainParser):
    """Oracle: every line scans its leaf's templates, with no memo."""

    def parse_line(self, tokens):
        leaf = self._descend(tokens)
        best, best_sim = None, -1.0
        for tpl in leaf.templates:
            sim = seq_similarity(tokens, tpl.tokens)
            if sim > best_sim:
                best, best_sim = tpl, sim
        if best is not None and best_sim >= self.config.similarity_threshold:
            best.tokens = [
                t if t == u else WILDCARD for t, u in zip(best.tokens, tokens)
            ]
            best.occurrence_count += 1
            return best.event_id, best
        tpl = LogTemplate(event_id=self._next_id, tokens=list(tokens), occurrence_count=1)
        self._next_id += 1
        self._templates[tpl.event_id] = tpl
        leaf.templates.append(tpl)
        return tpl.event_id, tpl


class TestSeqSimilarity:
    def test_identity_is_one(self):
        toks = ["a", "b", "c", "d", "e"]
        assert seq_similarity(toks, toks) == 1.0

    def test_half_match(self):
        assert seq_similarity(["x", "y"], ["x", "z"]) == 0.5

    def test_wildcard_matches_anything(self):
        assert seq_similarity(["x", "y"], ["x", WILDCARD]) == 1.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            seq_similarity(["a"], ["a", "b"])

    def test_bounds(self):
        import random

        rng = random.Random(0)
        vocab = ["a", "b", "c", WILDCARD]
        for _ in range(200):
            n = rng.randint(1, 8)
            a = [rng.choice(vocab[:3]) for _ in range(n)]
            b = [rng.choice(vocab) for _ in range(n)]
            s = seq_similarity(a, b)
            assert 0.0 <= s <= 1.0
            all_match = all(x == y or y == WILDCARD for x, y in zip(a, b))
            assert (s == 1.0) == all_match


def digit_rule(token):
    """The mask as first written: some character of the token is str.isdigit."""
    return any(ch.isdigit() for ch in token)


class TestPreprocess:
    def test_digit_tokens_masked(self):
        cfg = ParserConfig()
        toks = preprocess_line("pid 4742 exited status0 ok", cfg)
        assert toks == ["pid", WILDCARD, "exited", WILDCARD, "ok"]

    def test_mask_is_str_isdigit_on_every_code_point(self):
        # The oracle is one str.isdigit per character, so the check follows
        # the interpreter's Unicode tables.
        tokens = ["a" + chr(cp) for cp in range(sys.maxunicode + 1) if not chr(cp).isspace()]
        masked = preprocess_line(" ".join(tokens), ParserConfig())
        assert len(masked) == len(tokens)
        wrong = [t for t, m in zip(tokens, masked) if (m == WILDCARD) != digit_rule(t)]
        assert wrong == []

    @pytest.mark.parametrize("token, masked", [
        ("²", True), ("①", True), ("\u0663", True), ("x-y", False), ("v9", True), ("Ⅻ", False),
    ])
    def test_mask_named_cases(self, token, masked):
        assert (preprocess_line(token, ParserConfig()) == [WILDCARD]) is masked

    def test_masking_disabled(self):
        cfg = ParserConfig(mask_numeric_tokens=False)
        assert preprocess_line("pid 4742", cfg) == ["pid", "4742"]


class TestParser:
    def test_session_closed_merge(self):
        p = DrainParser()
        e1 = p.parse_message("session closed for user root")
        e2 = p.parse_message("session closed for user admin")
        assert e1 == e2
        assert p.templates[e1].render() == "session closed for user <*>"

    def test_five_lines_three_templates(self):
        # Two session-close variants, two session-open variants, one check.
        lines = [
            "session closed for user root",
            "session closed for user news",
            "session opened for user cyrus by uid equal zero",
            "session opened for user root by uid equal zero",
            "check pass; user unknown",
        ]
        p = DrainParser()
        for line in lines:
            p.parse_message(line)
        assert len(p.templates) == 3

    def test_identical_lines_same_id(self):
        p = DrainParser()
        a = p.parse_message("alpha beta gamma")
        b = p.parse_message("alpha beta gamma")
        assert a == b
        assert p.templates[a].occurrence_count == 2

    def test_different_lengths_different_ids(self):
        p = DrainParser()
        a = p.parse_message("alpha beta")
        b = p.parse_message("alpha beta gamma")
        assert a != b

    def test_empty_tokens_rejected(self):
        p = DrainParser()
        with pytest.raises(ValueError):
            p.parse_line([])
        assert p.parse_message("   ") is None

    def test_dense_first_seen_ids(self):
        p = DrainParser()
        ids = [p.parse_message(m) for m in ("one fish", "two fish blue", "one fish")]
        assert sorted(p.templates) == list(range(len(p.templates)))
        assert ids[0] == 0 and ids[1] == 1 and ids[2] == 0

    def test_wildcard_monotonicity(self):
        # A concrete token either stays itself or becomes the wildcard, never
        # a different concrete token.
        import random

        rng = random.Random(1)
        p = DrainParser()
        history = {}
        for _ in range(300):
            toks = [rng.choice("abc") for _ in range(4)]
            eid = p.parse_message(" ".join(toks))
            now = list(p.templates[eid].tokens)
            if eid in history:
                for before, after in zip(history[eid], now):
                    assert after in (before, WILDCARD)
            history[eid] = now

    def test_overflow_child_never_fails(self):
        cfg = ParserConfig(max_children=2, similarity_threshold=0.9)
        p = DrainParser(cfg)
        # Many distinct leading tokens exhaust the child budget at level 2;
        # later messages must still route (through the overflow child).
        for first in ("qa", "qb", "qc", "qd", "qe", "qf", "qg", "qh"):
            eid = p.parse_message(f"{first} one two")
            assert eid in p.templates

    def test_lengths_beyond_max_children_get_own_leaves(self):
        p = DrainParser(ParserConfig(tree_depth=2, max_children=1))
        ids = [p.parse_message(m) for m in ("a b", "a b c", "a b", "a")]
        assert ids == [0, 1, 0, 2]

    def test_export_and_table(self, tmp_path):
        p = DrainParser()
        p.parse_message("session closed for user root")
        p.parse_message("session closed for user news")
        rows = p.export_templates()
        assert rows == [(0, "session closed for user <*>", 2)]
        path = tmp_path / "templates.tsv"
        write_template_table(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "event_id\ttemplate\tcount"
        assert lines[1] == "0\tsession closed for user <*>\t2"


def message_stream(rng, n):
    """Messages drawn from a small pool, so most repeat, with one token
    changed now and then, so templates, earlier ones too, gain wildcards."""
    words = ["a", "b", "c", "d", "e", "x1", "y22", WILDCARD]
    pool = [
        [rng.choice(words) for _ in range(rng.randint(1, 6))] for _ in range(25)
    ]
    for _ in range(n):
        msg = list(rng.choice(pool))
        if rng.random() < 0.3:
            msg[rng.randrange(len(msg))] = rng.choice(words)
        yield " ".join(msg)


class TestMemoAgainstScan:
    @pytest.mark.parametrize("memo_limit", [None, 8])
    @pytest.mark.parametrize("threshold", [0.1, 0.5, 1.0])
    def test_same_ids_and_templates_after_every_line(self, threshold, memo_limit, monkeypatch):
        if memo_limit is not None:
            monkeypatch.setattr("flog.drain.MEMO_LIMIT", memo_limit)
        rng = random.Random(int(threshold * 10))
        for max_children, depth in itertools.product((1, 2, 3), (2, 3, 4, 5)):
            cfg = ParserConfig(
                tree_depth=depth, similarity_threshold=threshold, max_children=max_children
            )
            memo, scan = DrainParser(cfg), ScanParser(cfg)
            earlier_changed = 0
            for msg in message_stream(rng, 400):
                before = {eid: list(t.tokens) for eid, t in scan.templates.items()}
                assert memo.parse_message(msg) == scan.parse_message(msg), msg
                assert memo.export_templates() == scan.export_templates()
                assert {e: t.tokens for e, t in memo.templates.items()} == {
                    e: t.tokens for e, t in scan.templates.items()
                }
                if memo_limit is not None:
                    assert len(memo._memo) <= memo_limit
                earlier_changed += sum(
                    1 for eid, toks in before.items()
                    if eid < len(before) - 1 and scan.templates[eid].tokens != toks
                )
            if threshold < 1.0:
                assert earlier_changed > 0


# ASCII words, digit-bearing ASCII tokens, and tokens whose only digits are
# non-ASCII: a superscript, a circled digit and an Arabic-Indic digit.
mask_tokens = st.sampled_from(
    ["ok", "node", "a", "b", "c", "d", "e", "f", "g", "h", WILDCARD,
     "4742", "x1", "y22", "²", "①", "\u0663", "a²", "b①", "c\u0663", "Ⅻ", "é"]
)


class TestTokenMask:
    @given(st.lists(st.lists(mask_tokens, min_size=1, max_size=8), min_size=1, max_size=40))
    def test_memoised_mask_is_the_digit_rule(self, lines):
        # MEMO_LIMIT 8 holds fewer words than the stream draws from, so the
        # memo empties and refills while the stream runs.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("flog.drain.MEMO_LIMIT", 8)
            parser, cfg = DrainParser(), ParserConfig()
            for tokens in lines:
                line = " ".join(tokens)
                masked = preprocess_line(line, cfg, parser._token_mask)
                assert masked == [WILDCARD if digit_rule(t) else t for t in tokens]
                assert masked == preprocess_line(line, cfg)
                assert len(parser._token_mask) <= 8
                parser.parse_message(line)
                assert len(parser._token_mask) <= 8

    def test_new_parser_starts_empty(self):
        first = DrainParser()
        first.parse_message("session closed for user root")
        assert len(first._token_mask) == 5
        assert len(DrainParser()._token_mask) == 0

    def test_digit_tokens_never_stored(self):
        p = DrainParser()
        for line in ("pid 4742 exited status0 ok", "² ① \u0663 x1 y22 ok", "pid 4742 ok"):
            p.parse_message(line)
        assert set(p._token_mask) == {"pid", "exited", "ok"}
        assert all(key == value for key, value in p._token_mask.items())


class TestLogRecord:
    def test_positional_and_keyword_construction(self):
        positional = LogRecord(7, "n0", True, 3, 0)
        keyword = LogRecord(timestamp=7, node_id="n0", is_anomalous=True, event_id=3)
        assert positional == keyword
        assert keyword.raw_content_hash == 0
        assert (keyword.timestamp, keyword.node_id, keyword.is_anomalous, keyword.event_id) == (
            7, "n0", True, 3)

    def test_fields_cannot_be_assigned(self):
        record = LogRecord(7, "n0", False, 3)
        with pytest.raises(AttributeError):
            record.timestamp = 8

    def test_equal_records_hash_equal(self):
        a, b = LogRecord(7, "n0", False, 3), LogRecord(7, "n0", False, 3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, LogRecord(7, "n0", False, 4)}) == 2

    def test_sort_by_timestamp_is_stable(self):
        records = [LogRecord(t, "n0", False, i) for i, t in enumerate([5, 3, 5, 1, 3, 5])]
        records.sort(key=attrgetter("timestamp"))
        assert [(r.timestamp, r.event_id) for r in records] == [
            (1, 3), (3, 1), (3, 4), (5, 0), (5, 2), (5, 5)]


class TestParserConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ParserConfig(tree_depth=1)
        with pytest.raises(ValueError):
            ParserConfig(similarity_threshold=0.0)
        with pytest.raises(ValueError):
            ParserConfig(max_children=0)

    def test_defaults(self):
        cfg = ParserConfig()
        assert cfg.tree_depth == 4
        assert cfg.similarity_threshold == 0.4
        assert cfg.max_children == 100
        assert cfg.mask_numeric_tokens
