"""Small decoder-style transformer over log-key vocabularies.

The base network (embeddings, attention projections, FFN) is randomly
initialized and frozen; training touches only the low-rank Q/K/V bypass
adapters and the binary classifier head. Forward, weighted cross-entropy
with a proximal anchor term, and analytic gradients are implemented in
numpy, double precision throughout so finite-difference checks are exact
to ~1e-5.

Where no dropout mask applies (eval mode, or lora_dropout 0), each
client's bypass is merged into its frozen projection, W + (alpha/r) B A,
and its rows take one product with that effective weight (Hu et al.,
LoRA, 2022, sec. 4.1). A dropout mask drops bypass inputs only, so under
masks the frozen product and the masked bypass stay separate.

`forward` takes a batch as a `Packed`: the sequences' rows back to back,
as int32 token ids, with each sequence's length, from which `forward`
derives each row's position. `pack` makes one from token-id sequences,
`pack_keys` from windows' event ids and `pack_key_columns` from those ids
already laid end to end; all check lengths, so `forward` does not.
`Packed.take` reorders a batch's sequences, `Packed.runs` cuts it into
views of consecutive sequences, and `Packed.join` puts batches back into
one; training and scoring move windows only in that form. Each layer's
Wq, Wk and Wv are column views of one stored [Wq | Wk | Wv], shared by a
model's `with_trainable` clones, so every weight has one home that the
engine and checkpoint loads both use.

Every layer runs one attention code over (query, key) row pairs inside
each sequence. The final layer's queries are the sequences' last rows,
which the head reads; an inner layer's are all rows. The comment above
`Packed` describes the pairs.

Token convention: id 0 is PAD (reserved), id 1 is UNK, event id e maps to
token e + 2. Out-of-range tokens fall back to UNK.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import struct
import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .bounds import bounded, check

UNK_ID = 1
N_RESERVED = 2


@dataclass(frozen=True)
class ModelShape:
    """The model's size and adapter settings: the run config's `model:` section."""

    hidden_dim: int = bounded(16, ge=1)
    head_dim: int = bounded(8, ge=1)
    n_heads: int = bounded(2, ge=1)
    n_layers: int = bounded(1, ge=1)
    lora_rank: int = bounded(4, ge=1)
    lora_alpha: float = bounded(32.0, gt=0)
    lora_dropout: float = bounded(0.1, ge=0, lt=1)
    ffn_dim: int = bounded(32, ge=1)

    def __post_init__(self) -> None:
        check(self)
        if self.lora_rank > self.hidden_dim // 2:
            raise ValueError("lora_rank must be <= hidden_dim / 2 (low-rank regime)")
        if self.n_heads * self.head_dim != self.hidden_dim:
            raise ValueError("n_heads * head_dim must equal hidden_dim")

    @property
    def scale(self) -> float:
        return self.lora_alpha / self.lora_rank


@dataclass(frozen=True)
class ModelConfig(ModelShape):
    """A model shape with the vocabulary and sequence length of its data."""

    # At least one template, plus UNK and PAD.
    vocab_size: int = bounded(kw_only=True, ge=3)
    max_sequence_length: int = bounded(128, kw_only=True, ge=1)


_PROJ = ("q", "k", "v")


@functools.lru_cache(maxsize=None)
def _layout(config: ModelConfig) -> MappingProxyType:
    """Name -> (slice of the flat vector, shape) of each trainable tensor.

    Built once per config, this table is the one definition of the
    trainable layout: per layer the A then B adapter of q, k and v, then
    head_w, then head_b.
    """
    d, r = config.hidden_dim, config.lora_rank
    shapes = [(f"{m}{p}_{l}", (r, d) if m == "A" else (d, r))
              for l in range(config.n_layers) for p in _PROJ for m in "AB"]
    table, offset = {}, 0
    for name, shape in [*shapes, ("head_w", (d,)), ("head_b", (1,))]:
        size = math.prod(shape)
        table[name] = (slice(offset, offset + size), shape)
        offset += size
    return MappingProxyType(table)


def token_ids_from_keys(key_ids, vocab_size: int) -> np.ndarray:
    """Map event ids to int32 token ids, clamping unknown ids to UNK.

    The ids are cast to int32 before the shift, with no wider copy: an id
    that int32 cannot hold is unknown, and its wrapped value is replaced.
    """
    keys = np.asarray(key_ids)
    unknown = (keys < 0) | (keys >= vocab_size - N_RESERVED)
    ids = keys.astype(np.int32)
    ids += N_RESERVED
    ids[unknown] = UNK_ID
    return ids


class ModelState:
    """Frozen base weights plus trainable adapters and classifier head.

    The adapters, head_w and head_b are views into one flat float64 vector,
    `trainable`, which is what training, clipping and noise act on. `qkv`
    holds each layer's [Wq | Wk | Wv], (d, 3d), of whose column blocks the
    `frozen` entries Wq, Wk and Wv are views.
    """

    def __init__(self, config: ModelConfig, seed: int) -> None:
        self.config = config
        rng = np.random.default_rng(seed)
        d, f = config.hidden_dim, config.ffn_dim
        V, P, L = config.vocab_size, config.max_sequence_length, config.n_layers
        r = config.lora_rank

        def frozen(*shape):
            return rng.normal(0.0, 0.02, size=shape)

        self.frozen: dict[str, np.ndarray] = {"embed": frozen(V, d), "pos": frozen(P, d)}
        self.qkv = tuple(np.empty((d, 3 * d)) for _ in range(L))
        for l, W in enumerate(self.qkv):
            for i, p in enumerate(_PROJ):
                W[:, i * d:(i + 1) * d] = frozen(d, d)
                self.frozen[f"W{p}_{l}"] = W[:, i * d:(i + 1) * d]
            self.frozen[f"Wo_{l}"] = frozen(d, d)
            self.frozen[f"W1_{l}"] = frozen(d, f)
            self.frozen[f"W2_{l}"] = frozen(f, d)
        self.trainable = np.zeros(sum(math.prod(shape) for _, shape in _layout(config).values()))

        # B = 0 makes the adapted model identical to the base model at init.
        adapters = self.adapters
        for l in range(L):
            for p in _PROJ:
                adapters[f"A{p}_{l}"][...] = rng.normal(0.0, 1.0 / np.sqrt(r), size=(r, d))

    # -- flat trainable parameter vector ------------------------------------

    def _views(self) -> dict[str, np.ndarray]:
        """Every trainable tensor by name, as a view into `trainable`.

        For a (C, P) cohort matrix every view leads with the client axis.
        """
        lead = self.trainable.shape[:-1]
        return {name: self.trainable[..., sl].reshape(*lead, *shape)
                for name, (sl, shape) in _layout(self.config).items()}

    @property
    def adapters(self) -> dict[str, np.ndarray]:
        views = self._views()
        del views["head_w"], views["head_b"]
        return views

    @property
    def head_w(self) -> np.ndarray:
        return self._views()["head_w"]

    @property
    def head_b(self) -> np.ndarray:
        return self._views()["head_b"]

    @property
    def n_trainable(self) -> int:
        return self.trainable.shape[-1]

    def get_trainable(self) -> np.ndarray:
        return self.trainable.copy()

    def set_trainable(self, flat: np.ndarray) -> None:
        if flat.shape != self.trainable.shape:
            raise ValueError("flat vector length does not match layout")
        self.trainable[...] = flat

    def with_trainable(self, trainable: np.ndarray) -> "ModelState":
        """A model sharing these frozen weights, bound to `trainable` uncopied.

        A (C, P) `trainable` makes a cohort model: row c holds client c's
        adapters and head, and `forward` runs each group of sequences with
        its own row.
        """
        clone = ModelState.__new__(ModelState)
        clone.config = self.config
        clone.frozen = self.frozen  # shared, so a checkpoint load reaches every clone
        clone.qkv = self.qkv
        clone.trainable = trainable
        return clone

    def copy(self) -> "ModelState":
        return self.with_trainable(self.trainable.copy())

    # -- checkpoint io ------------------------------------------------------

    def all_tensors(self) -> dict[str, np.ndarray]:
        return {**self.frozen, **self._views()}

    def save(self, path) -> None:
        """Layout manifest (JSON) followed by the flat little-endian f64 vector."""
        tensors = self.all_tensors()
        manifest, offset = [], 0
        for name in sorted(tensors):
            arr = tensors[name]
            manifest.append(
                {"name": name, "offset": offset, "length": arr.size, "shape": list(arr.shape)}
            )
            offset += arr.size
        blob = json.dumps(manifest).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for entry in manifest:
                fh.write(tensors[entry["name"]].astype("<f8").tobytes())

    def load(self, path) -> None:
        """Read a checkpoint written by `save` for a model of this config.

        See `read_checkpoint`: every tensor of the model must be in the file,
        with its shape, and nothing else.
        """
        tensors = self.all_tensors()
        for name, arr in read_checkpoint(path, {n: a.shape for n, a in tensors.items()}).items():
            tensors[name][...] = arr


def read_checkpoint(path, shapes=None) -> dict[str, np.ndarray]:
    """The tensors, by name, of a checkpoint written by `ModelState.save`.

    Raises ValueError naming the file when its header or manifest cannot be
    read, and naming the tensor when it is listed twice or its data is not
    exactly the manifest's. Given `shapes`, the name -> shape of every
    tensor a model holds, it also names a tensor that the manifest misses
    or adds, or whose shape differs, before it looks at the data.
    """
    with open(path, "rb") as fh:
        header = fh.read(4)
        if len(header) < 4:
            raise ValueError(f"{path}: {len(header)} bytes, too short for a checkpoint header")
        (n,) = struct.unpack("<I", header)
        blob = fh.read(n)
        raw = fh.read()
    if len(blob) < n:
        raise ValueError(f"{path}: manifest truncated at {len(blob)} of {n} bytes")
    try:
        manifest = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise ValueError(f"{path}: manifest is not JSON: {exc}") from None
    if not (isinstance(manifest, list) and all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and all(type(e.get(k)) is int for k in ("offset", "length"))
            and isinstance(e.get("shape"), list) and all(type(x) is int for x in e["shape"])
            for e in manifest)):
        raise ValueError(f"{path}: manifest is not a list of tensor entries")
    if shapes is not None:
        named = {entry["name"] for entry in manifest}
        if missing := sorted(shapes.keys() - named):
            raise ValueError(f"{path}: tensor {missing[0]!r} is missing from the checkpoint")
        if unknown := sorted(named - shapes.keys()):
            raise ValueError(f"{path}: tensor {unknown[0]!r} is not part of the model")
    offset, name, seen = 0, None, set()
    for entry in manifest:
        name, shape = entry["name"], tuple(entry["shape"])
        if name in seen:
            raise ValueError(f"{path}: tensor {name!r} is listed twice")
        seen.add(name)
        if shapes is not None and shape != shapes[name]:
            raise ValueError(f"{path}: tensor {name!r} has shape {list(shape)}, "
                             f"the model expects {list(shapes[name])}")
        if entry["length"] != math.prod(shape) or min(shape, default=0) < 0:
            raise ValueError(f"{path}: tensor {name!r} has length {entry['length']} "
                             f"for shape {list(shape)}")
        if entry["offset"] != offset or 8 * (offset + entry["length"]) > len(raw):
            raise ValueError(f"{path}: data of tensor {name!r} is misplaced or truncated")
        offset += entry["length"]
    if len(raw) != 8 * offset:
        raise ValueError(f"{path}: {len(raw) - 8 * offset} bytes after tensor {name!r}")
    data = np.frombuffer(raw, dtype="<f8")
    return {entry["name"]: data[entry["offset"]:entry["offset"] + entry["length"]]
            .reshape(entry["shape"]) for entry in manifest}


def init(config: ModelConfig, seed: int) -> ModelState:
    return ModelState(config, seed)


# -- forward / backward -----------------------------------------------------
#
# A batch is a `Packed`: the rows of its sequences are concatenated, with no
# padding. Each layer attends from its query rows over (query, key) pairs
# inside each sequence, as one `_Pairs` built per call describes them. The
# head reads only each sequence's last row, so the final layer's query rows
# are the last rows, and its attention output and FFN cover them alone; its
# pairs are the sequences' rows in order: pair p is key row p, so K and V
# serve as they are, and q[p] is row p's sequence. An inner layer (n_layers > 1) needs every row: its
# query rows are all rows, and its pairs every (i, j) row pair of each
# sequence. Pairs are grouped by query, so one code serves every layer: a
# per-query value reaches its pairs by a take over q, segment softmax and
# the weighted sum over V are reduceats over the group starts, and backward
# sums an inner layer's per-pair K and V gradients per key row (`by_key`).
#
# A cohort model (a (C, P) trainable matrix) runs C clients' sequences in
# one batch. The sequences come grouped by client, so each client's rows are
# one contiguous run: the frozen weights act on all rows at once, and each
# client's adapters and head act on its own run.
#
# A layer's q, k and v projections are one (d, 3d) matrix [Wq | Wk | Wv],
# and client c's bypasses one S_c = s [Bq Aq | Bk Ak | Bv Av], made by one
# batched product over the stacked adapters. Without a dropout mask (eval
# mode, or lora_dropout 0) the bypass is merged into the weight, as LoRA
# allows: each client's rows take one product with W + S_c, which gives K,
# V and the queries (in the final layer, Q of every row, of which the last
# rows are kept; fewer calls cost less than the extra rows). A mask applies
# to the bypass input alone, so with masks the frozen product stays apart
# from each projection's masked bypass (H o M)_c S_c, Q is computed on the
# query rows only, and K and V share one frozen product H [Wk | Wv].
#
# The engine reads the weights where the model holds them: the frozen
# tensors by name, [Wq | Wk | Wv] from `ModelState.qkv`, and the adapters and
# head as views of `trainable` through one layout lookup per call. Lengths
# are checked when a batch is packed, so a call of `forward` or `backward`
# does the batch's arithmetic and little else.


class Packed:
    """Sequences packed into one batch of rows, as `forward` takes them.

    The sequences' rows lie back to back, with no padding: `ids` holds
    each row's int32 token id, already inside the vocabulary, and
    `lengths` each sequence's row count. A row's position in its sequence
    follows from the lengths, so it is not stored. len() is the number of
    sequences.
    """

    __slots__ = ("ids", "lengths")

    def __init__(self, ids: np.ndarray, lengths: np.ndarray) -> None:
        self.ids, self.lengths = ids, lengths

    def __len__(self) -> int:
        return len(self.lengths)

    def take(self, order: np.ndarray) -> "Packed":
        """Sequences order[0], order[1], ... of this batch, packed in that order."""
        lengths = self.lengths.take(order)
        # A row keeps its offset in its sequence, so new row r of sequence
        # j is old row r + (old start of j - new start of j).
        shift = (self.lengths.cumsum() - self.lengths).take(order) - (lengths.cumsum() - lengths)
        rows = np.arange(lengths.sum())
        rows += shift.repeat(lengths)
        return Packed(self.ids.take(rows), lengths)

    def runs(self, spans):
        """For each (a, b) in `spans`, sequences a:b as a batch that views this one."""
        ends = [0, *self.lengths.cumsum().tolist()]
        for a, b in spans:
            yield Packed(self.ids[ends[a]:ends[b]], self.lengths[a:b])

    @staticmethod
    def join(batches) -> "Packed":
        """The batches' sequences, in order, as one batch."""
        return Packed(np.concatenate([b.ids for b in batches]),
                      np.concatenate([b.lengths for b in batches]))


def _lengths(sequences) -> np.ndarray:
    """Each sequence's length, as int64."""
    return np.fromiter(map(len, sequences), np.int64, len(sequences))


def _checked(lengths: np.ndarray, config: ModelConfig) -> np.ndarray:
    """`lengths`; ValueError for an empty sequence or one over max_sequence_length."""
    if lengths.min(initial=1) < 1:
        raise ValueError("a sequence has no tokens")
    if lengths.max(initial=0) > config.max_sequence_length:
        raise ValueError(f"a sequence of {lengths.max()} tokens, "
                         f"longer than max_sequence_length {config.max_sequence_length}")
    return lengths


def pack(sequences, config: ModelConfig) -> Packed:
    """Token-id sequences as one `Packed` batch; ids outside the vocabulary become UNK.

    Raises ValueError for an empty sequence or one longer than
    max_sequence_length.
    """
    lengths = _checked(_lengths(sequences), config)
    ids = np.asarray(np.concatenate(sequences) if len(sequences) else [], dtype=np.int64)
    ids[(ids < 0) | (ids >= config.vocab_size)] = UNK_ID
    return Packed(ids.astype(np.int32), lengths)


def pack_keys(key_sequences, config: ModelConfig) -> Packed:
    """Windows' event-id sequences as one `Packed` batch of token ids, checked as `pack`."""
    return pack_key_columns(
        np.fromiter(itertools.chain.from_iterable(key_sequences), np.int64),
        _lengths(key_sequences), config,
    )


def pack_key_columns(key_ids: np.ndarray, lengths: np.ndarray, config: ModelConfig) -> Packed:
    """Windows' event ids, laid end to end, as one `Packed` batch, checked as `pack`.

    `key_ids` is an integer array and `lengths` (one per window) an int64
    one; `pack_keys` packs through this, so both map ids alike.
    """
    lengths = _checked(lengths, config)
    return Packed(token_ids_from_keys(key_ids, config.vocab_size), lengths)


@dataclass(frozen=True)
class _Pairs:
    """A layer's attention: its query rows and their (query, key) pairs.

    `rows` picks the layer's query rows out of its input rows, and
    `q_bounds` bounds each client's query rows. Pair p joins query q[p] (an
    index into the query rows) with key row k[p]; starts[g] is the first
    pair of query g. by_key permutes the pairs into key order, with the
    same group starts. Where pair p is key row p, k and by_key are None.
    """

    rows: np.ndarray | slice
    q_bounds: list
    q: np.ndarray
    k: np.ndarray | None
    starts: np.ndarray
    by_key: np.ndarray | None


def _all_pairs(lengths, starts, seg, pos, row_bounds) -> _Pairs:
    """Every (i, j) row pair inside each sequence, ordered by i, then j.

    `seg` and `pos` give each row's sequence and its position there.
    """
    sizes = lengths * lengths
    first = sizes.cumsum() - sizes
    pair_seg = np.arange(len(lengths)).repeat(sizes)
    T = lengths.take(pair_seg)
    i, j = np.divmod(np.arange(len(pair_seg)) - first.take(pair_seg), T)
    base = starts.take(pair_seg)
    return _Pairs(slice(None), row_bounds, base + i, base + j,
                  first.take(seg) + pos * lengths.take(seg), first.take(pair_seg) + j * T + i)


def _by_client(X: np.ndarray, M: np.ndarray, bounds) -> np.ndarray:
    """Rows bounds[c]:bounds[c + 1] of X times M[c], for each client c."""
    out = np.empty((len(X), M.shape[-1]))
    for a, b, m in zip(bounds, bounds[1:], M):
        np.matmul(X[a:b], m, out=out[a:b])
    return out


def _gram_by_client(X: np.ndarray, Y: np.ndarray, bounds, out: np.ndarray) -> None:
    """X^T Y over rows bounds[c]:bounds[c + 1] into out[c], for each client c."""
    for c, (a, b) in enumerate(zip(bounds, bounds[1:])):
        np.matmul(X[a:b].T, Y[a:b], out=out[c])


def _adapter_stacks(flat: np.ndarray, start: int, r: int, d: int):
    """Views A (C, 3, r, d) and B (C, 3, d, r) of the q, k and v adapters in a (C, P) matrix.

    A layer's six adapters lie side by side from column `start`, in the
    layout's order Aq Bq Ak Bk Av Bv, each r * d long.
    """
    block = flat[:, start:start + 6 * r * d].reshape(len(flat), 3, 2, r * d)
    return block[:, :, 0].reshape(-1, 3, r, d), block[:, :, 1].reshape(-1, 3, d, r)


def _blocks(X: np.ndarray) -> np.ndarray:
    """The q, k and v column blocks of (C, d, 3d) matrices, as a (C, 3, d, d) view."""
    C, d = X.shape[:2]
    return X.reshape(C, d, 3, d).transpose(0, 2, 1, 3)


def _projection_input_grad(dX, W, S, mask, bounds):
    """The gradient reaching H from dX, where X = H_c (W + S_c) on client c's rows,
    or H_c W + (H o mask)_c S_c under a mask, which drops bypass inputs only."""
    if mask is None:
        return _by_client(dX, (W + S).swapaxes(-1, -2), bounds)
    return dX @ W.T + _by_client(dX, S.swapaxes(-1, -2), bounds) * mask


class _LayerCache(NamedTuple):
    """What `backward` needs of one layer's forward pass."""

    H: np.ndarray  # the layer's input rows
    Hq: np.ndarray  # its query rows
    pairs: _Pairs
    S: np.ndarray
    masks: list | None
    Qp: np.ndarray
    Kp: np.ndarray
    Vp: np.ndarray
    P: np.ndarray
    Z: np.ndarray


class _Cache(NamedTuple):
    layers: list
    sizes: np.ndarray  # sequences per trainable row
    seq_bounds: list
    row_bounds: list
    h_last: np.ndarray
    y_hat: np.ndarray


def forward(state: ModelState, sequences, mode: str = "eval", rng=None, groups=None):
    """Classify key sequences, packed into one batch; returns (probabilities, cache).

    `sequences` is a `Packed` batch or a list of key-id sequences, which is
    packed first. A bare 1-D sequence is a batch of one and gets a scalar
    probability. In train mode with dropout, masks are drawn from `rng` for
    the rows each projection uses.

    For a cohort model, whose `trainable` is a (C, P) matrix, the sequences
    come in C consecutive non-empty groups, `groups[c]` of them for row c,
    and `rng` is one generator per row. Each row's masks cover its own
    group's rows and come from its own generator, in the order a one-row
    call draws them.
    """
    cfg = state.config
    single = False
    if not isinstance(sequences, Packed):
        single = len(sequences) == 0 or np.ndim(sequences[0]) == 0
        sequences = pack([sequences] if single else sequences, cfg)
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    layout, frozen = _layout(cfg), state.frozen
    flat = state.trainable.reshape(-1, state.trainable.shape[-1])
    C = len(flat)
    sizes = np.asarray([len(sequences)] if groups is None else groups)
    counts = sizes.tolist()
    seq_bounds = [0, *itertools.accumulate(counts)]
    if len(counts) != C or seq_bounds[-1] != len(sequences) or min(counts) < 1:
        raise ValueError("groups must give one positive sequence count per trainable row")
    rngs = rng if isinstance(rng, (list, tuple)) else [rng] * C
    dropout = mode == "train" and cfg.lora_dropout > 0.0
    if dropout and any(g is None for g in rngs):
        raise ValueError("train mode with dropout requires an rng")
    keep = 1.0 - cfg.lora_dropout
    n_heads, d_k, d, r = cfg.n_heads, cfg.head_dim, cfg.hidden_dim, cfg.lora_rank

    lengths = sequences.lengths
    ends = lengths.cumsum()
    starts = ends - lengths
    seg = np.arange(len(lengths)).repeat(lengths)  # each row's sequence
    pos = np.arange(len(sequences.ids))  # each row's position in its sequence
    pos -= starts.take(seg)
    # Group c's sequences, and their packed rows, as [start, stop) bounds.
    row_ends = ends.tolist()
    row_bounds = [0, *[row_ends[b - 1] for b in seq_bounds[1:]]]
    H = frozen["embed"].take(sequences.ids, 0) + frozen["pos"].take(pos, 0)

    layers = []
    # The final layer's queries are the last rows, and its pair p is key row p.
    final = _Pairs(ends - 1, seq_bounds, seg, None, starts, None)
    inner = _all_pairs(lengths, starts, seg, pos, row_bounds) if cfg.n_layers > 1 else None
    for l, W in enumerate(state.qkv):
        pairs = final if l == cfg.n_layers - 1 else inner
        Hq = H[pairs.rows]
        A, B = _adapter_stacks(flat, layout[f"Aq_{l}"][0].start, r, d)
        S = np.empty((C, d, 3 * d))
        np.matmul(B, A, out=_blocks(S))
        S *= cfg.scale
        masks = None
        if dropout:  # q, k, v in turn, each from every client's generator for its rows
            masks = []
            for bounds in (pairs.q_bounds, row_bounds, row_bounds):
                u = np.concatenate([g.random((b - a, d))
                                    for g, a, b in zip(rngs, bounds, bounds[1:])])
                masks.append((u < keep) / keep)
        if masks is None:  # one product per client with [Wq + S_q | Wk + S_k | Wv + S_v]
            QKV = _by_client(H, W + S, row_bounds)
            Q, K, V = QKV[:, :d][pairs.rows], QKV[:, d:2 * d], QKV[:, 2 * d:]
        else:  # Q on its rows; one frozen product for K and V, then each masked bypass
            Q = Hq @ W[:, :d] + _by_client(Hq * masks[0], S[..., :d], pairs.q_bounds)
            KV = H @ W[:, d:]
            K = KV[:, :d] + _by_client(H * masks[1], S[..., d:2 * d], row_bounds)
            V = KV[:, d:] + _by_client(H * masks[2], S[..., 2 * d:], row_bounds)
        # Per-pair rows of Q, K and V, split into heads.
        Qp, Kp, Vp = (X.reshape(len(X), n_heads, d_k) for X in (Q, K, V))
        Qp = Qp.take(pairs.q, 0)
        if pairs.k is not None:
            Kp, Vp = Kp.take(pairs.k, 0), Vp.take(pairs.k, 0)
        scores = np.einsum("phd,phd->ph", Qp, Kp) / math.sqrt(d_k)
        E = np.exp(scores - np.maximum.reduceat(scores, pairs.starts, axis=0).take(pairs.q, 0))
        P = E / np.add.reduceat(E, pairs.starts, axis=0).take(pairs.q, 0)
        O = np.add.reduceat(P[:, :, None] * Vp, pairs.starts, axis=0)
        H1 = Hq + O.reshape(len(Hq), -1) @ frozen[f"Wo_{l}"]
        Z = H1 @ frozen[f"W1_{l}"]
        layers.append(_LayerCache(H, Hq, pairs, S, masks, Qp, Kp, Vp, P, Z))
        H = H1 + np.maximum(Z, 0.0) @ frozen[f"W2_{l}"]

    z = _by_client(H, flat[:, layout["head_w"][0]].reshape(C, d, 1), seq_bounds)[:, 0]
    with np.errstate(over="ignore"):  # exp overflows below z ~ -709, where y_hat is 0.0
        y_hat = 1.0 / (1.0 + np.exp(-(z + flat[:, layout["head_b"][0].start].repeat(sizes))))
    cache = _Cache(layers, sizes, seq_bounds, row_bounds, H, y_hat)
    return (y_hat[0] if single else y_hat), cache


EVAL_ROWS = 1024  # packed rows per forward call, roughly


def row_chunks(row_counts) -> list[tuple[int, int]]:
    """Split consecutive items into (start, stop) runs, one packed call each.

    A run ends with the item whose rows reach a multiple of EVAL_ROWS, or
    with the last item, and never splits an item. Bounding rows rather than
    items bounds the packed arrays' memory and the size of each matmul:
    chunks of 64 windows of ~65 keys made OpenBLAS split the projections
    across the two cores of a shared 2-core box, and scoring ran several
    times slower. OpenBLAS's default build keeps a product on one thread
    while m*n*k <= 262,144, which 1024 rows reach with one (16, 16) weight;
    the merged (d, 3d) projection of an eval call crosses it from 342 rows
    at hidden_dim 16, and from 1,366 rows at hidden_dim 8.
    """
    runs, start, rows = [], 0, 0
    for i, n in enumerate(row_counts):
        if (rows + n) // EVAL_ROWS > rows // EVAL_ROWS or i == len(row_counts) - 1:
            runs.append((start, i + 1))
            start = i + 1
        rows += n
    return runs


def score(state: ModelState, batch: Packed) -> list[float]:
    """Eval-mode probability of each sequence of `batch`, scored in `row_chunks` runs."""
    out = []
    for run in batch.runs(row_chunks(batch.lengths.tolist())):
        out += forward(state, run)[0].tolist()
    return out


EPS_LOG = 1e-12


def loss(y_hat, y, class_weights, w_flat=None, w_anchor=None, mu=0.0):
    """Weighted binary cross-entropy plus the (mu/2)||w - w_t||^2 proximal term."""
    w0, w1 = class_weights
    p = min(max(y_hat, EPS_LOG), 1.0 - EPS_LOG)
    ce = -(w1 * y * np.log(p) + w0 * (1 - y) * np.log(1.0 - p))
    prox = 0.0
    if mu > 0.0 and w_flat is not None:
        diff = w_flat - w_anchor
        prox = 0.5 * mu * float(diff @ diff)
    return float(ce + prox)


def backward(state: ModelState, cache, y, class_weights, mu=0.0, w_anchor=None):
    """Batch sum of the per-sample loss gradients, shaped like `state.trainable`.

    `y` holds one label per sequence of the forward call that made `cache`
    (a scalar for a bare sequence). For a cohort model, row c of the result
    sums over group c alone, `class_weights` may give one (w0, w1) pair per
    row, and each row's proximal term pulls that row towards `w_anchor`.
    """
    cfg = state.config
    n_heads, d_k, d, r = cfg.n_heads, cfg.head_dim, cfg.hidden_dim, cfg.lora_rank
    sizes, seq_bounds, h_last, y_hat = cache.sizes, cache.seq_bounds, cache.h_last, cache.y_hat
    layout, frozen = _layout(cfg), state.frozen
    flat = state.trainable.reshape(-1, state.trainable.shape[-1])
    C, n_params = flat.shape
    weights = np.asarray(class_weights, dtype=float).reshape(-1, 2)
    w0, w1 = (weights if len(weights) == 1 else weights.repeat(sizes, 0)).T
    y = np.asarray(y, dtype=float)
    dz = -w1 * y * (1.0 - y_hat) + w0 * (1 - y) * y_hat

    # Head: z = h_last . head_w[c] + head_b[c] for each sequence of group c.
    grad = np.zeros((C, n_params))
    firsts = seq_bounds[:-1]
    w_cols, b_cols = layout["head_w"][0], layout["head_b"][0]
    grad[:, w_cols] = np.add.reduceat(dz[:, None] * h_last, firsts, axis=0)
    grad[:, b_cols] = np.add.reduceat(dz, firsts)[:, None]
    dH = dz[:, None] * flat[:, w_cols].repeat(sizes, 0)

    for l in reversed(range(cfg.n_layers)):
        lc = cache.layers[l]
        pairs = lc.pairs
        # FFN: H_out = H1 + relu(H1 W1) W2
        dZ = (dH @ frozen[f"W2_{l}"].T) * (lc.Z > 0.0)
        dH1 = dH + dZ @ frozen[f"W1_{l}"].T
        # Attention: H1 = H_q + O Wo, O = reduceat over pairs of P V
        dO = (dH1 @ frozen[f"Wo_{l}"].T).reshape(len(dH1), n_heads, d_k).take(pairs.q, 0)
        P = lc.P
        dP = np.einsum("phd,phd->ph", dO, lc.Vp)
        dS = P * (dP - np.add.reduceat(dP * P, pairs.starts, axis=0).take(pairs.q, 0))
        dS /= math.sqrt(d_k)
        dQ = np.add.reduceat(dS[:, :, None] * lc.Kp, pairs.starts, axis=0).reshape(len(dH1), d)
        dKV = np.empty((len(P), 2, n_heads, d_k))  # per pair, [dK | dV]
        np.multiply(dS[:, :, None], lc.Qp, out=dKV[:, 0])
        np.multiply(P[:, :, None], dO, out=dKV[:, 1])
        if pairs.by_key is not None:  # sum the pairs into one row per key row
            dKV = np.add.reduceat(dKV.take(pairs.by_key, 0), pairs.starts, axis=0)
        dKV = dKV.reshape(-1, 2 * d)
        dK, dV = dKV[:, :d], dKV[:, d:]
        # Projections: [Q | K | V] = H (W + S_c) on client c's rows, or with
        # masks H W + (H o M)_c S_c per projection, and S_c = s B_c A_c.
        H, Hq, W, S, masks = lc.H, lc.Hq, state.qkv[l], lc.S, lc.masks
        row_bounds = cache.row_bounds
        if masks is None:  # K and V share their input rows, so one gram serves both
            parts = [(Hq, dQ, pairs.q_bounds, slice(0, d), None),
                     (H, dKV, row_bounds, slice(d, 3 * d), None)]
        else:
            parts = [(Hq, dQ, pairs.q_bounds, slice(0, d), masks[0]),
                     (H, dK, row_bounds, slice(d, 2 * d), masks[1]),
                     (H, dV, row_bounds, slice(2 * d, 3 * d), masks[2])]
        G = np.empty((C, d, 3 * d))  # the gradient of each B_c A_c, in S's column blocks
        for X, dX, bounds, cols, M in parts:
            _gram_by_client(X if M is None else X * M, dX, bounds, G[:, :, cols])
        G *= cfg.scale
        start = layout[f"Aq_{l}"][0].start
        A, B = _adapter_stacks(flat, start, r, d)
        dA, dB = _adapter_stacks(grad, start, r, d)
        np.matmul(B.swapaxes(-1, -2), _blocks(G), out=dA)
        np.matmul(_blocks(G), A.swapaxes(-1, -2), out=dB)
        if l > 0:  # the embeddings below layer 0 are frozen
            dq, *dkv = (_projection_input_grad(dX, W[:, cols], S[..., cols], M, bounds)
                        for _, dX, bounds, cols, M in parts)
            dH = sum(dkv)
            dH[pairs.rows] += dH1 + dq

    if mu > 0.0 and w_anchor is not None:
        grad += sizes[:, None] * mu * (flat - w_anchor)
    return grad.reshape(state.trainable.shape)


def class_weights_from_labels(labels) -> tuple[float, float]:
    """Inverse-frequency class weights: w_c = N / (2 N_c)."""
    labels = np.asarray(labels)
    n = len(labels)
    n1 = int(labels.sum())
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        warnings.warn("single-class dataset; falling back to uniform class weights")
        return 1.0, 1.0
    return n / (2.0 * n0), n / (2.0 * n1)
