"""Online log template mining with a fixed-depth similarity tree.

Messages are routed by token count, then by their first few tokens, to a
leaf holding candidate templates; below the count level, a node that holds
MAX_CHILDREN tokens sends later ones to its overflow child ``<*>``. The
best-matching template absorbs the message (diverging positions become the
wildcard ``<*>``); if nothing is similar enough a new template is created.
Event ids are dense integers in first-seen order and form the model vocabulary.

Three memos let repeated input skip work. Each belongs to the parser and
is emptied when it reaches MEMO_LIMIT entries.

- Shapes skip the split and the mask (`DrainParser.parse_message`). A
  message's shape is its UTF-8 bytes with ASCII 1-9 turned to 0, and a
  shape seen before gives its masked token tuple. This is exact. UTF-8
  never uses bytes 0x30-0x39 inside another character, so two messages of
  one shape differ only in ASCII digits at the same places. They therefore
  split at the same places, and each token either holds a digit in both,
  so both become ``<*>``, or is the same text. A line whose shape and tokens were both
  seen costs ~0.7 us in all, against ~3.2 us with the split and mask; a new
  shape adds ~1 us to them (CPython 3.11, 2.1 GHz Xeon). So the memo's
  hits are checked when it doubles from SHAPE_CHECK shapes and when it is
  full: one that served fewer hits than it holds shapes is dropped for the
  rest of the run, and a full one that passes is emptied.
- Token lists skip the tree (`DrainParser.parse_line`): the parser
  remembers which template each one went to and replays that while the
  template's leaf is unchanged.
- Words skip the digit mask: each parser keeps a `TokenMask`, a dict of
  the tokens the mask left alone, so a repeated word is one dict lookup in
  C. A token with a digit is masked every time it is met and never stored,
  so numbers, which rarely repeat, cannot fill the dict.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

WILDCARD = "<*>"
# A message is routed by its token count, then by its first TREE_DEPTH - 2 tokens.
TREE_DEPTH = 4
# The least similarity at which a leaf's best template absorbs a message.
SIMILARITY_THRESHOLD = 0.4
# A node below the length level holds at most this many concrete children;
# tokens met after that share one more child, the overflow child WILDCARD.
MAX_CHILDREN = 100
# Each memo is emptied when it reaches this many entries, so a log whose
# shapes, lines or words rarely repeat cannot grow it without bound.
MEMO_LIMIT = 1 << 16
# The shape memo's hits are first checked when it holds this many shapes.
SHAPE_CHECK = 1 << 10
# `\d` is Unicode Nd (str.isdecimal), a subset of str.isdigit; the digits it
# misses (superscripts, circled digits, ...) are all non-ASCII.
_DECIMAL = re.compile(r"\d").search
# A message's shape is its UTF-8 bytes with ASCII 1-9 turned to 0.
_SHAPE = bytes.maketrans(b"123456789", b"000000000")


@dataclass
class LogTemplate:
    event_id: int
    tokens: list[str]
    occurrence_count: int = 0

    def render(self) -> str:
        return " ".join(self.tokens)


class LogRecord(NamedTuple):
    """One parsed line, as `windows.NodeRecords` yields it from its columns."""

    timestamp: int
    node_id: str
    is_anomalous: bool
    event_id: int
    raw_content_hash: int = 0  # unused; kept so five-field constructions still work


class _Node:
    __slots__ = ("children", "templates", "version")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        self.templates: list[LogTemplate] = []
        # Bumped when one of `templates` gains a wildcard; appending one is not a change.
        self.version = 0


class TokenMask(dict):
    """Token -> the token, or WILDCARD if some character of it is str.isdigit.

    Look tokens up with `mask[token]`. Only tokens the mask leaves alone are
    stored, and the dict is emptied when it reaches MEMO_LIMIT of them.
    """

    __slots__ = ()

    def __missing__(self, token: str) -> str:
        # One regex search per token; only non-ASCII tokens need the full test.
        if _DECIMAL(token) or (not token.isascii() and any(map(str.isdigit, token))):
            return WILDCARD
        if len(self) >= MEMO_LIMIT:
            self.clear()
        self[token] = token
        return token


def preprocess_line(raw_line: str, mask: TokenMask | None = None) -> list[str]:
    """Split a message into tokens, masking digit-bearing tokens.

    A parser passes its own `mask` so repeated words are looked up, not tested.
    """
    return list(map((TokenMask() if mask is None else mask).__getitem__, raw_line.split()))


def seq_similarity(a: list[str], b: list[str]) -> float:
    """Position-wise match ratio; a wildcard in ``b`` matches any token in ``a``."""
    if len(a) != len(b):
        raise ValueError(f"token lists must have equal length ({len(a)} vs {len(b)})")
    hits = sum(1 for ta, tb in zip(a, b) if ta == tb or tb == WILDCARD)
    return hits / len(a)


class DrainParser:
    """Mutable parser state. Single-writer: one thread ingests at a time."""

    def __init__(self) -> None:
        self._root = _Node()
        self.templates: list[LogTemplate] = []  # by event id
        # Masked token tuple -> (its leaf, the leaf's version then, its template).
        self._memo: dict[tuple[str, ...], tuple[_Node, int, LogTemplate]] = {}
        self._token_mask = TokenMask()
        # Message shape -> its masked tokens; None once shapes stopped paying.
        self._shapes: dict[bytes, tuple[str, ...]] | None = {}
        self._shape_hits = 0  # hits since the shape memo was last emptied
        self._shape_check = SHAPE_CHECK  # its size at the next hit count check

    def parse_line(self, tokens: Sequence[str]) -> tuple[int, LogTemplate]:
        """Route the tokens to a leaf, merge into the best template or mint a new one.

        Tokens seen before, in a leaf whose templates have not changed since,
        go straight to their template. That is what the scan would pick: the
        template matches them at similarity 1 and absorbs them unchanged,
        every template before it in the leaf scored below 1 and still does,
        later ones can only tie, ties keep the first, and the same tokens
        always route to the same leaf.
        """
        if not tokens:
            raise ValueError("parse_line requires a non-empty token list")
        key = tuple(tokens)
        hit = self._memo.get(key)
        if hit is not None and hit[0].version == hit[1]:
            tpl = hit[2]
            tpl.occurrence_count += 1
            return tpl.event_id, tpl
        leaf = self._descend(tokens)
        best, best_sim = None, -1.0
        for tpl in leaf.templates:
            sim = seq_similarity(tokens, tpl.tokens)
            if sim > best_sim:
                best, best_sim = tpl, sim
        if best is not None and best_sim >= SIMILARITY_THRESHOLD:
            merged = [t if t == u else WILDCARD for t, u in zip(best.tokens, tokens)]
            if merged != best.tokens:
                best.tokens = merged
                leaf.version += 1
            best.occurrence_count += 1
        else:
            best = LogTemplate(len(self.templates), list(tokens), occurrence_count=1)
            self.templates.append(best)
            leaf.templates.append(best)
        if len(self._memo) >= MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = (leaf, leaf.version, best)
        return best.event_id, best

    def parse_message(self, raw_line: str) -> int | None:
        """Preprocess then parse; returns None for empty messages.

        A message whose shape was seen before takes that shape's tokens
        instead of being split and masked (see the module docstring).
        """
        shapes = self._shapes
        if shapes is None:
            tokens = preprocess_line(raw_line, self._token_mask)
        else:
            shape = raw_line.encode("utf-8", "surrogatepass").translate(_SHAPE)
            tokens = shapes.get(shape)
            if tokens is None:
                tokens = self._new_shape(shape, raw_line)
            else:
                self._shape_hits += 1
        if not tokens:
            return None
        return self.parse_line(tokens)[0]

    def _new_shape(self, shape: bytes, raw_line: str) -> tuple[str, ...]:
        """The message's tokens, remembered under its shape.

        Each time the shape memo doubles from SHAPE_CHECK shapes, and when
        it is full, it must have served as many hits as it holds shapes;
        if not, this log's shapes rarely repeat and the memo is dropped for
        the rest of the run. A full memo that passes is emptied.
        """
        tokens = tuple(preprocess_line(raw_line, self._token_mask))
        shapes = self._shapes
        n = len(shapes)
        if n >= self._shape_check or n >= MEMO_LIMIT:
            if self._shape_hits < n:
                self._shapes = None
                return tokens
            if n >= MEMO_LIMIT:
                shapes.clear()
                self._shape_hits, self._shape_check = 0, SHAPE_CHECK
            else:
                self._shape_check = 2 * n
        shapes[shape] = tokens
        return tokens

    def _descend(self, tokens: Sequence[str]) -> _Node:
        # The length level has no MAX_CHILDREN cap: a leaf must hold one length.
        node = self._root.children.setdefault(str(len(tokens)), _Node())
        for token in tokens[:TREE_DEPTH - 2]:
            # A new token gets its own child, or the overflow child once the node is full.
            children = node.children
            node = children.get(token) or children.setdefault(
                token if len(children) < MAX_CHILDREN else WILDCARD, _Node())
        return node

    def export_templates(self) -> list[tuple[int, str, int]]:
        """Immutable snapshot: (event_id, template string, occurrence count), by id."""
        return [(tpl.event_id, tpl.render(), tpl.occurrence_count) for tpl in self.templates]


def write_template_table(rows: list[tuple[int, str, int]], path) -> None:
    """Tab-separated template export with a header row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("event_id\ttemplate\tcount\n")
        for eid, template, count in rows:
            fh.write(f"{eid}\t{template}\t{count}\n")
