"""Federated orchestration: broadcast, local FedProx training, clipping,
n-weighted aggregation, and central Gaussian noising.

Aggregation uses the delta form w_t + sum_k (n_k / n) Delta_k, and the
noise is calibrated to the clip bound C as its l2 sensitivity. That holds
under zero-out adjacency: neighbouring rounds differ in one client's
clipped delta being replaced by 0 while every weight n_k / n stays fixed,
which moves the aggregate by (n_k / n) ||Delta_k|| <= C. Under add/remove
adjacency the realised denominator n changes too and the bound does not
hold as stated; ROADMAP.md item 3 tracks the fix. Noise touches only the
communicated (trainable) coordinates. All randomness is derived from the
run seed through named sub-streams, so results are independent of client
execution order.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass

import numpy as np

from . import model as model_ops
from .accountant import PrivacyLedger
from .metrics import RoundMetrics, evaluate
from .model import ModelState, token_ids_from_keys
from .partition import ClientDataset

log = logging.getLogger(__name__)

_STREAM_SELECT = 1
_STREAM_CLIENT = 2
_STREAM_SERVER = 3


@dataclass(frozen=True)
class FedConfig:
    k_clients: int
    rounds: int
    participation_rate: float = 1.0
    local_epochs: int = 1
    learning_rate: float = 2e-5
    proximal_mu: float = 0.01
    clip_bound: float = 1.0
    noise_multiplier: float = 0.01
    batch_size: int = 8
    weight_decay: float = 0.0
    warmup_ratio: float = 0.0
    grad_accum_steps: int = 1
    max_grad_norm: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k_clients < 1 or self.rounds < 1:
            raise ValueError("k_clients and rounds must be >= 1")
        if not (0.0 < self.participation_rate <= 1.0):
            raise ValueError("participation_rate must be in (0, 1]")
        if self.clip_bound <= 0.0:
            raise ValueError("clip_bound must be positive")
        if self.noise_multiplier < 0.0 or self.proximal_mu < 0.0:
            raise ValueError("noise_multiplier and proximal_mu must be non-negative")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be non-negative")
        if self.batch_size < 1 or self.grad_accum_steps < 1:
            raise ValueError("batch_size and grad_accum_steps must be >= 1")
        if not (0.0 <= self.warmup_ratio <= 1.0):
            raise ValueError("warmup_ratio must be in [0, 1]")
        # A negative max_grad_norm would flip every clipped step into ascent.
        if self.max_grad_norm <= 0.0:
            raise ValueError("max_grad_norm must be positive")
        if self.learning_rate < 0.0 or self.weight_decay < 0.0:
            raise ValueError("learning_rate and weight_decay must be non-negative")


@dataclass
class UpdateDelta:
    client_id: int
    delta: np.ndarray
    n_samples: int
    pre_clip_norm: float


class AggregationError(RuntimeError):
    """No usable client updates this round; the round is skipped."""


def select_participants(k_clients: int, q: float, rng: np.random.Generator) -> list[int]:
    """Poisson sampling: each client independently with probability q, redraw if empty."""
    while True:
        mask = rng.random(k_clients) < q
        if mask.any():
            return [int(i) for i in np.flatnonzero(mask)]


def local_train(
    client: ClientDataset,
    base_state: ModelState,
    global_flat: np.ndarray,
    cfg: FedConfig,
    rng: np.random.Generator,
) -> UpdateDelta:
    """E epochs of mini-batch FedProx SGD from the broadcast weights.

    The E * ceil(n / batch_size) micro-batches run in order, across epoch
    boundaries, grad_accum_steps per optimizer step; the last step takes
    the remainder. Per step: gradients averaged over its micro-batches,
    clipped to max_grad_norm, linear learning-rate warmup over
    warmup_ratio of the step budget, decoupled weight decay.
    """
    n = client.n_samples
    if n == 0 or cfg.local_epochs == 0:
        return UpdateDelta(client.client_id, np.zeros_like(global_flat), n, 0.0)

    state = base_state.copy()
    state.set_trainable(global_flat)
    # Token ids of every sequence, converted in one pass and split into views.
    keys = [s.key_ids for s in client.sequences]
    tokens = token_ids_from_keys(
        np.fromiter(itertools.chain.from_iterable(keys), np.int64), state.config.vocab_size
    )
    sequences = np.split(tokens, np.cumsum([len(k) for k in keys])[:-1])
    labels = np.array([s.label for s in client.sequences])
    weights = model_ops.class_weights_from_labels(labels)

    accum = cfg.grad_accum_steps
    n_micro = cfg.local_epochs * -(-n // cfg.batch_size)
    total_steps = -(-n_micro // accum)
    warmup_steps = int(round(cfg.warmup_ratio * total_steps))
    # Lazy: an epoch's permutation is drawn when its first batch is pulled,
    # after the dropout draws of the previous epoch's last batch.
    batches = (
        order[start : start + cfg.batch_size]
        for order in (rng.permutation(n) for _ in range(cfg.local_epochs))
        for start in range(0, n, cfg.batch_size)
    )
    w = state.trainable

    for step in range(total_steps):
        # The last step averages fewer micro-batches when n_micro % accum != 0.
        k = min(accum, n_micro - step * accum)
        g = np.zeros_like(w)
        for idx in itertools.islice(batches, k):
            _, cache = model_ops.forward(state, [sequences[i] for i in idx], "train", rng)
            g += model_ops.backward(
                state, cache, labels[idx], weights, cfg.proximal_mu, global_flat
            ) / len(idx)
        g /= k
        g_norm = float(np.linalg.norm(g))
        if g_norm > cfg.max_grad_norm:
            g *= cfg.max_grad_norm / g_norm
        lr = cfg.learning_rate
        if step < warmup_steps:
            lr *= (step + 1) / warmup_steps
        w -= lr * g
        if cfg.weight_decay > 0.0:
            w -= lr * cfg.weight_decay * w

    delta = w - global_flat
    return UpdateDelta(client.client_id, delta, n, float(np.linalg.norm(delta)))


def clip_update(delta: np.ndarray, clip_bound: float) -> np.ndarray:
    """Scale the delta into the l2 ball of radius clip_bound."""
    if clip_bound <= 0.0:
        raise ValueError("clip_bound must be positive")
    norm = float(np.linalg.norm(delta))
    if norm <= clip_bound:
        return delta
    return delta * (clip_bound / norm)


def aggregate(deltas: list[UpdateDelta], w_t: np.ndarray, clip_bound: float) -> np.ndarray:
    """n-weighted mean of clipped deltas applied to the broadcast weights."""
    usable = [d for d in deltas if d.n_samples > 0]
    total = sum(d.n_samples for d in usable)
    if total == 0:
        raise AggregationError("no participant contributed samples this round")
    for d in usable:
        norm = float(np.linalg.norm(d.delta))
        if norm > clip_bound + 1e-9:
            raise AssertionError(
                f"unclipped delta from client {d.client_id} reached aggregation "
                f"({norm} > {clip_bound})"
            )
    out = w_t.copy()
    for d in usable:
        out += (d.n_samples / total) * d.delta
    return out


def add_noise(
    w_bar: np.ndarray, sigma: float, clip_bound: float, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. Gaussian noise with std sigma * clip_bound per trainable coordinate."""
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return w_bar
    return w_bar + rng.normal(0.0, sigma * clip_bound, size=w_bar.shape)


class FederatedTrainer:
    """Runs Algorithm phases broadcast / local train / clip / aggregate / noise."""

    def __init__(
        self,
        state: ModelState,
        clients: list[ClientDataset],
        test_sequences: list,
        test_labels: list[int],
        cfg: FedConfig,
        ledger: PrivacyLedger,
    ) -> None:
        self.state = state
        self.clients = clients
        self.cfg = cfg
        self.ledger = ledger
        vocab = state.config.vocab_size
        self.test_tokens = [token_ids_from_keys(s, vocab) for s in test_sequences]
        self.test_labels = list(test_labels)
        self.server_rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _STREAM_SERVER])
        )
        self.metrics: list[RoundMetrics] = []

    def _round_rng(self, stream: int, round_idx: int, client: int = 0):
        return np.random.default_rng(
            np.random.SeedSequence([self.cfg.seed, stream, round_idx, client])
        )

    def evaluate_global(self) -> tuple[list[float], list[int]]:
        return model_ops.score(self.state, self.test_tokens), self.test_labels

    def run_round(self, round_idx: int) -> RoundMetrics:
        t_start = time.perf_counter()
        cfg = self.cfg
        participants = select_participants(
            cfg.k_clients, cfg.participation_rate, self._round_rng(_STREAM_SELECT, round_idx)
        )
        global_flat = self.state.get_trainable()
        deltas = [
            local_train(self.clients[k], self.state, global_flat, cfg,
                        self._round_rng(_STREAM_CLIENT, round_idx, k))
            for k in participants
        ]

        pre_clip = [d.pre_clip_norm for d in deltas if d.n_samples > 0]
        for d in deltas:
            d.delta = clip_update(d.delta, cfg.clip_bound)

        w_bar = aggregate(deltas, global_flat, cfg.clip_bound)
        w_next = add_noise(w_bar, cfg.noise_multiplier, cfg.clip_bound, self.server_rng)
        self.state.set_trainable(w_next)
        self.ledger.update()

        scores, labels = self.evaluate_global()
        m = evaluate(
            scores,
            labels,
            round_idx=round_idx,
            participants=len(participants),
            eps_spent=self.ledger.eps_spent_rdp,
            mean_pre_clip_norm=float(np.mean(pre_clip)) if pre_clip else 0.0,
            wall_seconds=time.perf_counter() - t_start,
        )
        self.metrics.append(m)
        return m

    def run(self) -> list[RoundMetrics]:
        for round_idx in range(self.cfg.rounds):
            try:
                m = self.run_round(round_idx)
            except AggregationError as exc:
                log.warning("round %d skipped: %s", round_idx, exc)
                continue
            log.info(
                "round %d: f1=%.4f auc=%.4f eps_rdp=%.4g",
                round_idx, m.f1, m.roc_auc, m.eps_spent,
            )
        return self.metrics
