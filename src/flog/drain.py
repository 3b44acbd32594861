"""Online log template mining with a fixed-depth similarity tree.

Messages are routed by token count, then by their first few tokens, to a
leaf holding candidate templates. The best-matching template absorbs the
message (diverging positions become the wildcard ``<*>``); if nothing is
similar enough a new template is created. Event ids are dense integers in
first-seen order and form the model vocabulary.

Token lists seen before skip the tree: the parser remembers which template
each one went to and replays that while the template's leaf is unchanged
(see `DrainParser.parse_line`).

Words seen before skip the digit mask: each parser keeps a `TokenMask`, a
dict of the tokens the mask left alone, so a repeated word is one dict
lookup in C. A token with a digit is masked every time it is met and never
stored, so numbers, which rarely repeat, cannot fill the dict. Both memos
belong to the parser and are emptied at MEMO_LIMIT entries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .bounds import bounded, check

WILDCARD = "<*>"
# Each memo is emptied when it reaches this many entries, so a log whose
# lines or words rarely repeat cannot grow it without bound.
MEMO_LIMIT = 1 << 16
# `\d` is Unicode Nd (str.isdecimal), a subset of str.isdigit; the digits it
# misses (superscripts, circled digits, ...) are all non-ASCII.
_DECIMAL = re.compile(r"\d").search


@dataclass(frozen=True)
class ParserConfig:
    tree_depth: int = bounded(4, ge=2)
    similarity_threshold: float = bounded(0.4, gt=0, le=1)
    max_children: int = bounded(100, ge=1)
    mask_numeric_tokens: bool = True

    def __post_init__(self) -> None:
        check(self)


@dataclass
class LogTemplate:
    event_id: int
    tokens: list[str]
    occurrence_count: int = 0

    def render(self) -> str:
        return " ".join(self.tokens)


class LogRecord(NamedTuple):
    """One parsed line. A tuple, so building one per line costs one allocation."""

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


def preprocess_line(raw_line: str, config: ParserConfig,
                    mask: TokenMask | None = None) -> list[str]:
    """Split a message into tokens, masking digit-bearing tokens if configured.

    A parser passes its own `mask` so repeated words are looked up, not tested.
    """
    tokens = raw_line.split()
    if config.mask_numeric_tokens:
        tokens = list(map((TokenMask() if mask is None else mask).__getitem__, tokens))
    return tokens


def seq_similarity(a: list[str], b: list[str]) -> float:
    """Position-wise match ratio; a wildcard in ``b`` matches any token in ``a``."""
    if len(a) != len(b):
        raise ValueError(f"token lists must have equal length ({len(a)} vs {len(b)})")
    hits = sum(1 for ta, tb in zip(a, b) if ta == tb or tb == WILDCARD)
    return hits / len(a)


class DrainParser:
    """Mutable parser state. Single-writer: one thread ingests at a time."""

    def __init__(self, config: ParserConfig | None = None) -> None:
        self.config = config or ParserConfig()
        self._root = _Node()
        self._templates: dict[int, LogTemplate] = {}
        self._next_id = 0
        # Masked token tuple -> (its leaf, the leaf's version then, its template).
        self._memo: dict[tuple[str, ...], tuple[_Node, int, LogTemplate]] = {}
        self._token_mask = TokenMask()

    @property
    def templates(self) -> dict[int, LogTemplate]:
        return self._templates

    def parse_line(self, tokens: list[str]) -> tuple[int, LogTemplate]:
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
        if best is not None and best_sim >= self.config.similarity_threshold:
            merged = [t if t == u else WILDCARD for t, u in zip(best.tokens, tokens)]
            if merged != best.tokens:
                best.tokens = merged
                leaf.version += 1
            best.occurrence_count += 1
        else:
            best = LogTemplate(event_id=self._next_id, tokens=list(tokens), occurrence_count=1)
            self._next_id += 1
            self._templates[best.event_id] = best
            leaf.templates.append(best)
        if len(self._memo) >= MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = (leaf, leaf.version, best)
        return best.event_id, best

    def parse_message(self, raw_line: str) -> int | None:
        """Convenience: preprocess then parse; returns None for empty messages."""
        tokens = preprocess_line(raw_line, self.config, self._token_mask)
        if not tokens:
            return None
        event_id, _ = self.parse_line(tokens)
        return event_id

    def _descend(self, tokens: list[str]) -> _Node:
        # The length level has no max_children cap: a leaf must hold one length.
        node = self._root.children.setdefault(str(len(tokens)), _Node())
        # Route by the leading tokens, at most tree_depth - 2 levels.
        n_levels = min(self.config.tree_depth - 2, len(tokens))
        for i in range(n_levels):
            node = self._child(node, tokens[i])
        return node

    def _child(self, node: _Node, key: str) -> _Node:
        child = node.children.get(key)
        if child is None:
            if len(node.children) >= self.config.max_children:
                # Full internal node: route through the shared overflow child.
                key = WILDCARD
                child = node.children.get(key)
                if child is None:
                    # max_children counts concrete keys; the overflow slot is extra.
                    child = node.children[key] = _Node()
            else:
                child = node.children[key] = _Node()
        return child

    def export_templates(self) -> list[tuple[int, str, int]]:
        """Immutable snapshot: (event_id, template string, occurrence count), by id."""
        return [
            (eid, tpl.render(), tpl.occurrence_count)
            for eid, tpl in sorted(self._templates.items())
        ]


def write_template_table(rows: list[tuple[int, str, int]], path) -> None:
    """Tab-separated template export with a header row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("event_id\ttemplate\tcount\n")
        for eid, template, count in rows:
            fh.write(f"{eid}\t{template}\t{count}\n")
