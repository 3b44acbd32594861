"""Template mining: similarity, routing, merging, masking, overflow, memo."""

import itertools
import random
import re
import sys
from operator import attrgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flog import drain
from flog.drain import (
    WILDCARD,
    DrainParser,
    LogRecord,
    LogTemplate,
    preprocess_line,
    seq_similarity,
    write_template_table,
)


class ScanParser(DrainParser):
    """Oracle: every message is split and masked, every line scans its
    leaf's templates, and nothing is memoised. It routes through a tree of
    its own, kept as plain dicts keyed by route."""

    def __init__(self):
        super().__init__()
        self.seen = {}  # route -> the concrete tokens routed below it
        self.leaves = {}  # full route -> its leaf's templates

    def route(self, tokens):
        """The leaf of `tokens`: their count, then up to TREE_DEPTH - 2 of
        them, where a node takes MAX_CHILDREN concrete tokens and sends
        every later one to its overflow child WILDCARD."""
        path = (len(tokens),)
        for token in tokens[:drain.TREE_DEPTH - 2]:
            seen = self.seen.setdefault(path, set())
            if token not in seen and len(seen) < drain.MAX_CHILDREN:
                seen.add(token)
            path += (token if token in seen else WILDCARD,)
        return self.leaves.setdefault(path, [])

    def parse_message(self, raw_line):
        tokens = preprocess_line(raw_line)
        return self.parse_line(tokens)[0] if tokens else None

    def parse_line(self, tokens):
        leaf = self.route(tokens)
        best, best_sim = None, -1.0
        for tpl in leaf:
            sim = seq_similarity(tokens, tpl.tokens)
            if sim > best_sim:
                best, best_sim = tpl, sim
        if best is not None and best_sim >= drain.SIMILARITY_THRESHOLD:
            best.tokens = [
                t if t == u else WILDCARD for t, u in zip(best.tokens, tokens)
            ]
            best.occurrence_count += 1
            return best.event_id, best
        tpl = LogTemplate(event_id=len(self.templates), tokens=list(tokens), occurrence_count=1)
        self.templates.append(tpl)
        leaf.append(tpl)
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
        toks = preprocess_line("pid 4742 exited status0 ok")
        assert toks == ["pid", WILDCARD, "exited", WILDCARD, "ok"]

    def test_mask_is_str_isdigit_on_every_code_point(self):
        # The oracle is one str.isdigit per character, so the check follows
        # the interpreter's Unicode tables.
        tokens = ["a" + chr(cp) for cp in range(sys.maxunicode + 1) if not chr(cp).isspace()]
        masked = preprocess_line(" ".join(tokens))
        assert len(masked) == len(tokens)
        wrong = [t for t, m in zip(tokens, masked) if (m == WILDCARD) != digit_rule(t)]
        assert wrong == []

    @pytest.mark.parametrize("token, masked", [
        ("²", True), ("①", True), ("\u0663", True), ("x-y", False), ("v9", True), ("Ⅻ", False),
    ])
    def test_mask_named_cases(self, token, masked):
        assert (preprocess_line(token) == [WILDCARD]) is masked

    def test_carriage_return_splits_like_a_space(self):
        # A lone CR stays inside its log line; the split treats it as whitespace.
        assert preprocess_line("disk sda\rerror code 5 retry") == [
            "disk", "sda", "error", "code", WILDCARD, "retry"]
        p = DrainParser()
        assert p.parse_message("disk sda\rerror code 5 retry") == p.parse_message(
            "disk sda error code 7 retry") == 0


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
        assert [t.event_id for t in p.templates] == list(range(len(p.templates)))
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

    def test_overflow_child_never_fails(self, monkeypatch):
        monkeypatch.setattr("flog.drain.MAX_CHILDREN", 2)
        monkeypatch.setattr("flog.drain.SIMILARITY_THRESHOLD", 0.9)
        p = DrainParser()
        # Many distinct leading tokens exhaust the child budget at level 2;
        # later messages must still route (through the overflow child).
        for first in ("qa", "qb", "qc", "qd", "qe", "qf", "qg", "qh"):
            eid = p.parse_message(f"{first} one two")
            assert p.templates[eid].event_id == eid

    def test_lengths_beyond_max_children_get_own_leaves(self, monkeypatch):
        monkeypatch.setattr("flog.drain.TREE_DEPTH", 2)
        monkeypatch.setattr("flog.drain.MAX_CHILDREN", 1)
        p = DrainParser()
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
        monkeypatch.setattr("flog.drain.SIMILARITY_THRESHOLD", threshold)
        rng = random.Random(int(threshold * 10))
        for max_children, depth in itertools.product((1, 2, 3), (2, 3, 4, 5)):
            monkeypatch.setattr("flog.drain.MAX_CHILDREN", max_children)
            monkeypatch.setattr("flog.drain.TREE_DEPTH", depth)
            memo, scan = DrainParser(), ScanParser()
            earlier_changed = 0
            for msg in message_stream(rng, 400):
                before = [list(t.tokens) for t in scan.templates]
                assert memo.parse_message(msg) == scan.parse_message(msg), msg
                assert memo.export_templates() == scan.export_templates()
                assert [t.tokens for t in memo.templates] == [t.tokens for t in scan.templates]
                if memo_limit is not None:
                    assert len(memo._memo) <= memo_limit
                earlier_changed += sum(
                    1 for eid, toks in enumerate(before)
                    if eid < len(before) - 1 and scan.templates[eid].tokens != toks
                )
            if threshold < 1.0:
                assert earlier_changed > 0

    def test_overflow_child_at_the_shipped_settings(self):
        # More distinct second tokens than MAX_CHILDREN under one first
        # token: the later ones share the overflow child, whose template
        # then merges lines that concrete children keep apart.
        names = ["".join("abcdefghij"[int(d)] for d in f"{i:03d}")
                 for i in range(drain.MAX_CHILDREN + 30)]
        rng = random.Random(7)
        memo, scan = DrainParser(), ScanParser()
        for _ in range(3):
            rng.shuffle(names)
            for name in names:
                msg = f"svc {name} {rng.choice(('started', 'stopped'))} ok"
                assert memo.parse_message(msg) == scan.parse_message(msg), msg
                assert memo.export_templates() == scan.export_templates()
        routing = memo._root.children["4"].children["svc"]
        assert len(routing.children) == drain.MAX_CHILDREN + 1
        assert WILDCARD in routing.children


def shape_stream(rng, n):
    """Messages from a small pool whose ASCII digits vary from one use to the
    next, inside tokens and as whole tokens, with non-ASCII digits, Unicode
    whitespace between tokens, and blank messages. Most uses keep a
    message's shape, so the shape memo serves hits and stays on."""
    words = ["a", "b", "code", "x1", "0", "4742", "²", "①", "\u0663", "v²", "Ⅻ", "é"]
    gaps = [" ", "\xa0", "\u3000", "\t", "  "]
    pool = [
        "".join(rng.choice(words) + rng.choice(gaps) for _ in range(rng.randint(1, 5)))
        for _ in range(3)
    ] + ["", "\xa0\u3000"]
    for _ in range(n):
        msg = rng.choice(pool)
        if rng.random() < 0.5:  # the same shape, other digits
            msg = re.sub(r"[0-9]+", lambda m: m[0][::-1].replace("0", "9"), msg)
        if rng.random() < 0.03:  # a new shape: x1 -> x23, 4742 -> 7, one more token
            msg = re.sub(r"[0-9]+", lambda m: rng.choice(("7", "23")), msg)
            msg += rng.choice(["", " x23", " 0", " ²"])
        yield msg


class TestShapesAgainstScan:
    @pytest.mark.parametrize("threshold", [0.5, 1.0])
    def test_same_ids_and_templates_after_every_line(self, threshold, monkeypatch):
        # MEMO_LIMIT 8 holds fewer shapes, lines and words than the stream
        # has, so every memo empties while it runs.
        monkeypatch.setattr("flog.drain.MEMO_LIMIT", 8)
        monkeypatch.setattr("flog.drain.SIMILARITY_THRESHOLD", threshold)
        rng = random.Random(int(threshold * 10) + 1)
        for depth in (3, 4):
            monkeypatch.setattr("flog.drain.TREE_DEPTH", depth)
            memo, scan = DrainParser(), ScanParser()
            emptied = 0
            for msg in shape_stream(rng, 800):
                before = len(memo._shapes or {})
                assert memo.parse_message(msg) == scan.parse_message(msg), repr(msg)
                assert memo.export_templates() == scan.export_templates()
                assert [t.tokens for t in memo.templates] == [t.tokens for t in scan.templates]
                # None once the shape memo stopped; each line is then split and masked.
                shapes = memo._shapes or {}
                assert max(len(shapes), len(memo._memo), len(memo._token_mask)) <= 8
                emptied += 0 < len(shapes) < before
            assert emptied > 0

    def test_digits_never_split_templates(self):
        # Digit-bearing tokens are always masked, so other numbers or other
        # digit counts in one position give one template.
        p = DrainParser()
        ids = [p.parse_message(m) for m in ("code 1", "code 2", "code 1", "code 22")]
        assert ids == [0, 0, 0, 0]
        assert p.export_templates() == [(0, "code <*>", 4)]

    def test_one_shape_one_token_list(self):
        p = DrainParser()
        for msg in ("pid 4742 on x1", "pid 1000 on x9", "pid 0 on x0", "pid ① on x²"):
            p.parse_message(msg)
        assert p._shapes == {
            b"pid 0000 on x0": ("pid", WILDCARD, "on", WILDCARD),
            b"pid 0 on x0": ("pid", WILDCARD, "on", WILDCARD),
            "pid ① on x²".encode(): ("pid", WILDCARD, "on", WILDCARD),
        }
        assert p._shape_hits == 1

    def test_lone_surrogates_have_shapes_of_their_own(self):
        p = DrainParser()
        assert [p.parse_message(m) for m in ("tag \ud800", "tag \udfff", "tag \ud800")] == [0, 1, 0]

    @pytest.mark.parametrize("limit, check", [(8, 1 << 10), (64, 8)])
    def test_shapes_that_never_repeat_stop_the_shape_memo(self, limit, check, monkeypatch):
        # Every message has a shape of its own: its letters spell its index.
        # The memo stops at its first check, the first time it is full
        # (MEMO_LIMIT 8) or the first time it reaches SHAPE_CHECK shapes.
        monkeypatch.setattr("flog.drain.MEMO_LIMIT", limit)
        monkeypatch.setattr("flog.drain.SHAPE_CHECK", check)
        stop = min(limit, check)
        memo, scan = DrainParser(), ScanParser()
        for i in range(200):
            word = "".join("ab"[int(bit)] for bit in f"{i:08b}")
            msg = f"job {word}{i} ran {i % 7} s"
            assert memo.parse_message(msg) == scan.parse_message(msg)
            if i < stop:
                assert len(memo._shapes) == i + 1
            else:
                assert memo._shapes is None
            assert max(len(memo._memo), len(memo._token_mask)) <= limit
        assert memo.export_templates() == scan.export_templates()

    def test_shapes_that_repeat_keep_the_shape_memo(self, monkeypatch):
        # Each new shape is followed by a repeat, so every check passes:
        # the memo doubles its check from 4 shapes and empties at 16.
        monkeypatch.setattr("flog.drain.MEMO_LIMIT", 16)
        monkeypatch.setattr("flog.drain.SHAPE_CHECK", 4)
        p, sizes = DrainParser(), []
        for i in range(40):
            word = "".join("ab"[int(bit)] for bit in f"{i:06b}")
            p.parse_message(f"job {word} ran {i % 9} s")
            p.parse_message(f"job {word} ran {i % 9 + 1} s")
            sizes.append(len(p._shapes))
        assert sizes == [n % 16 + 1 for n in range(40)]


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
            parser = DrainParser()
            for tokens in lines:
                line = " ".join(tokens)
                masked = preprocess_line(line, parser._token_mask)
                assert masked == [WILDCARD if digit_rule(t) else t for t in tokens]
                assert masked == preprocess_line(line)
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

