"""Small decoder-style transformer over log-key vocabularies.

The base network (embeddings, attention projections, FFN) is randomly
initialized and frozen; training touches only the low-rank Q/K/V bypass
adapters and the binary classifier head. Forward, weighted cross-entropy
with a proximal anchor term, and analytic gradients are implemented in
numpy, double precision throughout so finite-difference checks are exact
to ~1e-5.

Token convention: id 0 is PAD (reserved), id 1 is UNK, event id e maps to
token e + 2. Out-of-range tokens fall back to UNK.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

PAD_ID = 0
UNK_ID = 1
N_RESERVED = 2


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hidden_dim: int = 16
    head_dim: int = 8
    n_heads: int = 2
    n_layers: int = 1
    lora_rank: int = 4
    lora_alpha: float = 32.0
    lora_dropout: float = 0.1
    max_sequence_length: int = 128
    ffn_dim: int = 32

    def __post_init__(self) -> None:
        if self.vocab_size < 3:
            raise ValueError("vocab_size must be >= 3 (templates + UNK + PAD)")
        if self.lora_rank < 1:
            raise ValueError("lora_rank must be >= 1")
        if self.lora_rank > self.hidden_dim // 2:
            raise ValueError("lora_rank must be <= hidden_dim / 2 (low-rank regime)")
        if self.n_heads * self.head_dim != self.hidden_dim:
            raise ValueError("n_heads * head_dim must equal hidden_dim")
        if not (0.0 <= self.lora_dropout < 1.0):
            raise ValueError("lora_dropout must be in [0, 1)")

    @property
    def scale(self) -> float:
        return self.lora_alpha / self.lora_rank


_PROJ = ("q", "k", "v")


def _trainable_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of each trainable tensor, in flat-vector order.

    This table is the one definition of the trainable layout: per layer the
    A then B adapter of q, k and v, then head_w, then head_b.
    """
    d, r = config.hidden_dim, config.lora_rank
    shapes: dict[str, tuple[int, ...]] = {}
    for l in range(config.n_layers):
        for p in _PROJ:
            shapes[f"A{p}_{l}"] = (r, d)
            shapes[f"B{p}_{l}"] = (d, r)
    shapes["head_w"] = (d,)
    shapes["head_b"] = (1,)
    return shapes


def _trainable_views(config: ModelConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Name -> reshaped view into the flat trainable vector `flat`."""
    views, offset = {}, 0
    for name, shape in _trainable_shapes(config).items():
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


def token_ids_from_keys(key_ids, vocab_size: int) -> np.ndarray:
    """Map event ids to token ids, clamping unknown ids to UNK."""
    ids = np.asarray(key_ids, dtype=np.int64) + N_RESERVED
    ids[(ids < N_RESERVED) | (ids >= vocab_size)] = UNK_ID
    return ids


class ModelState:
    """Frozen base weights plus trainable adapters and classifier head.

    The adapters, head_w and head_b are views into one flat float64 vector,
    `trainable`, which is what training, clipping and noise act on.
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
        for l in range(L):
            for name in ("Wq", "Wk", "Wv", "Wo"):
                self.frozen[f"{name}_{l}"] = frozen(d, d)
            self.frozen[f"W1_{l}"] = frozen(d, f)
            self.frozen[f"W2_{l}"] = frozen(f, d)

        # B = 0 makes the adapted model identical to the base model at init.
        shapes = _trainable_shapes(config).values()
        self._bind(np.zeros(sum(math.prod(shape) for shape in shapes)))
        for l in range(L):
            for p in _PROJ:
                self.adapters[f"A{p}_{l}"][...] = rng.normal(0.0, 1.0 / np.sqrt(r), size=(r, d))

    # -- flat trainable parameter vector ------------------------------------

    def _bind(self, trainable: np.ndarray) -> None:
        """Own `trainable` and make adapters, head_w and head_b views into it."""
        self.trainable = trainable
        views = _trainable_views(self.config, trainable)
        self.head_w = views.pop("head_w")
        self.head_b = views.pop("head_b")
        self.adapters: dict[str, np.ndarray] = views

    @property
    def n_trainable(self) -> int:
        return self.trainable.size

    def get_trainable(self) -> np.ndarray:
        return self.trainable.copy()

    def set_trainable(self, flat: np.ndarray) -> None:
        if flat.shape != self.trainable.shape:
            raise ValueError("flat vector length does not match layout")
        self.trainable[...] = flat

    def copy(self) -> "ModelState":
        clone = ModelState.__new__(ModelState)
        clone.config = self.config
        clone.frozen = self.frozen  # frozen weights are shared, never mutated
        clone._bind(self.trainable.copy())
        return clone

    # -- checkpoint io ------------------------------------------------------

    def all_tensors(self) -> dict[str, np.ndarray]:
        out = dict(self.frozen)
        out.update(self.adapters)
        out["head_w"] = self.head_w
        out["head_b"] = self.head_b
        return out

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
        with open(path, "rb") as fh:
            (n,) = struct.unpack("<I", fh.read(4))
            manifest = json.loads(fh.read(n).decode("utf-8"))
            data = np.frombuffer(fh.read(), dtype="<f8")
        tensors = self.all_tensors()
        for entry in manifest:
            arr = tensors[entry["name"]]
            arr[...] = data[entry["offset"] : entry["offset"] + entry["length"]].reshape(
                entry["shape"]
            )


def init(config: ModelConfig, seed: int) -> ModelState:
    return ModelState(config, seed)


# -- forward / backward -----------------------------------------------------


def adapted_projection(H, W, A, B, alpha, r, dropout_mask):
    """H W plus the scaled low-rank bypass (alpha/r) (H o mask) B A."""
    if H.shape[1] != W.shape[0] or A.shape[1] != H.shape[1] or B.shape[0] != W.shape[1]:
        raise ValueError("inconsistent shapes in adapted projection")
    return H @ W + (alpha / r) * ((H * dropout_mask) @ B) @ A


def _softmax_rows(S):
    Z = S - S.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def attention(Q, K, V):
    """Row-stable softmax(Q K^T / sqrt(d_k)) V, no causal mask."""
    d_k = Q.shape[1]
    P = _softmax_rows(Q @ K.T / np.sqrt(d_k))
    return P @ V


def forward(state: ModelState, key_ids, mode: str = "eval", rng=None):
    """Classify a whole key sequence; returns (probability, cache)."""
    cfg = state.config
    if len(key_ids) == 0:
        raise ValueError("forward requires a non-empty sequence")
    if len(key_ids) > cfg.max_sequence_length:
        raise ValueError("sequence longer than max_sequence_length")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")

    ids = np.asarray(key_ids, dtype=np.int64)
    ids = np.where((ids < 0) | (ids >= cfg.vocab_size), UNK_ID, ids)
    T, d = len(ids), cfg.hidden_dim
    r = cfg.lora_rank
    n_heads, d_k = cfg.n_heads, cfg.head_dim

    H = state.frozen["embed"][ids] + state.frozen["pos"][:T]
    cache = {"ids": ids, "mode": mode, "layers": []}
    for l in range(cfg.n_layers):
        lc = {"H_in": H}
        proj = {}
        for p in _PROJ:
            if mode == "train" and cfg.lora_dropout > 0.0:
                if rng is None:
                    raise ValueError("train mode with dropout requires an rng")
                keep = 1.0 - cfg.lora_dropout
                mask = (rng.random((T, d)) < keep) / keep
            else:
                mask = np.ones((T, d))
            W = state.frozen[f"W{p}_{l}"]
            A = state.adapters[f"A{p}_{l}"]
            B = state.adapters[f"B{p}_{l}"]
            proj[p] = adapted_projection(H, W, A, B, cfg.lora_alpha, r, mask)
            lc[f"mask_{p}"] = mask
        Q, K, V = proj["q"], proj["k"], proj["v"]
        lc["Q"], lc["K"], lc["V"] = Q, K, V

        O = np.empty((T, d))
        lc["P"] = []
        for h in range(n_heads):
            sl = slice(h * d_k, (h + 1) * d_k)
            P = _softmax_rows(Q[:, sl] @ K[:, sl].T / np.sqrt(d_k))
            lc["P"].append(P)
            O[:, sl] = P @ V[:, sl]
        lc["O"] = O
        H1 = H + O @ state.frozen[f"Wo_{l}"]
        Z = H1 @ state.frozen[f"W1_{l}"]
        lc["H1"], lc["Z"] = H1, Z
        H = H1 + np.maximum(Z, 0.0) @ state.frozen[f"W2_{l}"]
        cache["layers"].append(lc)

    h_last = H[-1]
    z = float(h_last @ state.head_w + state.head_b[0])
    y_hat = 1.0 / (1.0 + np.exp(-z))
    cache["h_last"], cache["H_out"] = h_last, H
    return y_hat, cache


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
    """Gradient of the loss over the trainable flat vector (adapters + head)."""
    cfg = state.config
    s, r = cfg.scale, cfg.lora_rank
    n_heads, d_k = cfg.n_heads, cfg.head_dim
    w0, w1 = class_weights
    h_last = cache["h_last"]

    z = float(h_last @ state.head_w + state.head_b[0])
    y_hat = 1.0 / (1.0 + np.exp(-z))
    dz = -w1 * y * (1.0 - y_hat) + w0 * (1 - y) * y_hat

    grad = np.zeros(state.n_trainable)
    grads = _trainable_views(cfg, grad)
    grads["head_w"][...] = dz * h_last
    grads["head_b"][0] = dz
    dH = np.zeros_like(cache["H_out"])
    dH[-1] = dz * state.head_w

    for l in reversed(range(cfg.n_layers)):
        lc = cache["layers"][l]
        # FFN: H_out = H1 + relu(H1 W1) W2
        dZr = dH @ state.frozen[f"W2_{l}"].T
        dZ = dZr * (lc["Z"] > 0.0)
        dH1 = dH + dZ @ state.frozen[f"W1_{l}"].T
        # Attention: H1 = H_in + O Wo
        dO = dH1 @ state.frozen[f"Wo_{l}"].T
        Q, K, V = lc["Q"], lc["K"], lc["V"]
        dQ = np.empty_like(Q)
        dK = np.empty_like(K)
        dV = np.empty_like(V)
        for h in range(n_heads):
            sl = slice(h * d_k, (h + 1) * d_k)
            P = lc["P"][h]
            dOh = dO[:, sl]
            dP = dOh @ V[:, sl].T
            dV[:, sl] = P.T @ dOh
            dS = P * (dP - (dP * P).sum(axis=1, keepdims=True))
            dQ[:, sl] = dS @ K[:, sl] / np.sqrt(d_k)
            dK[:, sl] = dS.T @ Q[:, sl] / np.sqrt(d_k)
        # Projections: X = H W + s (H o M) B A
        H_in = lc["H_in"]
        dH_next = dH1.copy()
        for p, dX in zip(_PROJ, (dQ, dK, dV)):
            W = state.frozen[f"W{p}_{l}"]
            A = state.adapters[f"A{p}_{l}"]
            B = state.adapters[f"B{p}_{l}"]
            M = lc[f"mask_{p}"]
            Xin = H_in * M
            grads[f"A{p}_{l}"][...] = s * (Xin @ B).T @ dX
            grads[f"B{p}_{l}"][...] = s * Xin.T @ (dX @ A.T)
            dH_next += dX @ W.T + s * ((dX @ A.T) @ B.T) * M
        dH = dH_next

    if mu > 0.0 and w_anchor is not None:
        grad += mu * (state.trainable - w_anchor)
    return grad


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
