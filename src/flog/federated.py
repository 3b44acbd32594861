"""Federated orchestration: broadcast, local FedProx training, clipping,
n-weighted aggregation, and central Gaussian noising.

Aggregation uses the delta form w_t + sum_k (n_k / n) Delta_k, and the
noise is calibrated to the clip bound C as its l2 sensitivity. That holds
under zero-out adjacency: neighbouring rounds differ in one client's
clipped delta being replaced by 0 while every weight n_k / n stays fixed,
which moves the aggregate by (n_k / n) ||Delta_k|| <= C. Under add/remove
adjacency the realised denominator n changes too and the bound does not
hold as stated; ROADMAP.md item 3 tracks the fix. Noise touches only the
communicated (trainable) coordinates.

What the ledger's (epsilon, delta) covers is the sequence of noised global
models, one per round. Three things leave the clients outside that
mechanism and are not covered by it:
- the vocabulary: one central Drain parse of every client's raw messages
  gives the template ids, the model's vocabulary size and `templates.tsv`
  (literal template tokens and per-template counts);
- each round's row of `rounds.csv`: the realised participant count and
  the un-noised mean pre-clip norm of the participants' updates;
- the evaluation: accuracy, P/R/F1 and AUC are computed on held-out
  windows pooled from every client's nodes.

Every configured round is one release. Participation is exact Poisson
sampling, each client drawn independently with probability q, so a round
may draw no client, or only clients without windows. The mean of no
updates leaves the weights where they were, and the round still adds its
noise, is accounted and is evaluated like any other.

A round's participants train as one cohort, in lockstep: micro-batch i of
every client that has one shares packed forward/backward calls, while each
client keeps its own row of adapters and head, its own class weights and
its own optimizer step. A client's windows stay in one `model.Packed`
form from conversion to engine call: packed once per run, reordered once
per epoch right after its permutation (`Packed.take`), cut into
micro-batches that view that packing (`Packed.runs`), and joined into a
call with one concatenate per array (`Packed.join`).

All randomness is derived from the run seed through named sub-streams,
and each client draws from its own stream in the order it would if
trained alone, so its update equals its solo training up to rounding.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import model as model_ops
from .accountant import PrivacyLedger
from .metrics import RoundMetrics, evaluate
from .model import ModelConfig, ModelState
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
    # The run seed comes from `flog --seed`; a config file cannot set it.
    seed: int = field(default=0, metadata={"option": "--seed"})

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


def select_participants(k_clients: int, q: float, rng: np.random.Generator) -> list[int]:
    """Poisson sampling: each client independently with probability q; may be empty."""
    return np.flatnonzero(rng.random(k_clients) < q).tolist()


@dataclass(frozen=True)
class LocalData:
    """One client's training windows, packed as token ids, with labels and class weights."""

    client_id: int
    windows: model_ops.Packed
    labels: np.ndarray
    class_weights: tuple[float, float]

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @classmethod
    def from_client(cls, client: ClientDataset, config: ModelConfig) -> "LocalData":
        """Pack every window's keys once, as `model.pack_keys` does.

        Raises ValueError naming the client for a window without keys, or
        with more than the model's max_sequence_length.
        """
        keys = [s.key_ids for s in client.sequences]
        try:
            windows = model_ops.pack_keys(keys, config)
        except ValueError as exc:
            raise ValueError(f"client {client.client_id}: {exc}") from None
        labels = np.array([s.label for s in client.sequences])
        weights = model_ops.class_weights_from_labels(labels) if keys else (1.0, 1.0)
        return cls(client.client_id, windows, labels, weights)


@dataclass(frozen=True)
class Cohort:
    """A round's participants, trained together by `local_train`."""

    members: tuple[LocalData, ...]

    @property
    def n_samples(self) -> int:
        """The participants' windows, in total."""
        return sum(m.n_samples for m in self.members)


def _micro_batches(data: LocalData, cfg: FedConfig, rng: np.random.Generator):
    """(batch, labels) of one client's micro-batches, epoch after epoch.

    Each epoch is packed once, and its micro-batches are views of it. Lazy:
    an epoch's permutation is drawn when its first batch is pulled, after
    the dropout draws of the previous epoch's last batch, and by then the
    generator holds nothing of the previous epoch's packing.
    """
    n = data.n_samples
    spans = [(a, min(a + cfg.batch_size, n)) for a in range(0, n, cfg.batch_size)]
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        labels = data.labels.take(order)
        yield from zip(data.windows.take(order).runs(spans), (labels[a:b] for a, b in spans))


def local_train(
    clients: Cohort | ClientDataset,
    base_state: ModelState,
    global_flat: np.ndarray,
    cfg: FedConfig,
    rng: np.random.Generator | list[np.random.Generator],
) -> list[UpdateDelta] | UpdateDelta:
    """E epochs of mini-batch FedProx SGD from the broadcast weights, per client.

    `clients` is a Cohort with one generator per member in `rng`, and one
    UpdateDelta per member comes back; a bare ClientDataset with one
    generator is a cohort of one and gets one UpdateDelta.

    Each client runs its E * ceil(n / batch_size) micro-batches in order,
    across epoch boundaries, grad_accum_steps per optimizer step; its last
    step takes the remainder. Per step: gradients averaged over its
    micro-batches, clipped to max_grad_norm, linear learning-rate warmup
    over warmup_ratio of its step budget, decoupled weight decay.

    The clients run in lockstep. Micro-batch i of every client that has one
    goes into shared `model.forward`/`model.backward` calls: whole
    micro-batches in member order, a call ending where `model.row_chunks`
    ends a run. Each client keeps its own row of a (C, P) weight matrix, its
    own class weights and its own generator, which it draws in the order of
    a solo run, so its update is its solo update up to rounding.
    """
    solo = isinstance(clients, ClientDataset)
    if solo:
        clients = Cohort((LocalData.from_client(clients, base_state.config),))
        rng = [rng]
    members = clients.members
    C, accum, bs = len(members), cfg.grad_accum_steps, cfg.batch_size
    weights = np.array([m.class_weights for m in members])
    n_micro = np.array([cfg.local_epochs * -(-m.n_samples // bs) for m in members], dtype=int)
    total_steps = -(-n_micro // accum)
    warmup_steps = np.round(cfg.warmup_ratio * total_steps).astype(int)
    # Per client and step: the micro-batches it averages (the last step takes
    # fewer when n_micro % accum != 0) and its learning rate, warmup included.
    steps = np.arange(total_steps.max(initial=0))
    k_table = np.minimum(accum, n_micro[:, None] - steps * accum)
    warm = warmup_steps[:, None]
    lr_table = np.where(steps < warm, cfg.learning_rate * ((steps + 1) / np.maximum(warm, 1)),
                        cfg.learning_rate)
    batches = [_micro_batches(m, cfg, g) for m, g in zip(members, rng)]
    W = np.tile(global_flat, (C, 1))
    g = np.zeros_like(W)

    for i in range(n_micro.max(initial=0)):
        active = np.flatnonzero(n_micro > i)
        micro = [next(batches[c]) for c in active.tolist()]
        for a, b in model_ops.row_chunks([len(batch.ids) for batch, _ in micro]):
            call = active[a:b]
            parts, labels = zip(*micro[a:b])
            sizes = np.array([len(part) for part in parts])
            state = base_state.with_trainable(W[call])
            _, cache = model_ops.forward(
                state, model_ops.Packed.join(parts), "train",
                [rng[c] for c in call.tolist()], groups=sizes,
            )
            grad = model_ops.backward(
                state, cache, np.concatenate(labels), weights[call], cfg.proximal_mu,
                global_flat,
            )
            g[call] += grad / sizes[:, None]
        # Their views would keep a finished epoch's packing alive while the
        # next one is built, and two at once raise the run's peak memory.
        del micro, parts

        # Clients whose step ends here: every accum-th micro-batch, and the last.
        done = active if (i + 1) % accum == 0 else active[n_micro[active] == i + 1]
        if len(done) == 0:
            continue
        step = i // accum
        step_g = g[done] / k_table[done, step][:, None]
        # The l2 norm of each row, as np.linalg.norm computes it for a vector.
        norms = [math.sqrt(row.dot(row)) for row in step_g]
        step_g *= (cfg.max_grad_norm / np.maximum(norms, cfg.max_grad_norm))[:, None]
        lr = lr_table[done, step]
        w = W[done] - lr[:, None] * step_g
        if cfg.weight_decay > 0.0:
            w -= (lr * cfg.weight_decay)[:, None] * w
        W[done] = w
        g[done] = 0.0

    updates = [
        UpdateDelta(m.client_id, delta, m.n_samples, float(np.linalg.norm(delta)))
        for m, delta in zip(members, W - global_flat)
    ]
    return updates[0] if solo else updates


def clip_update(delta: np.ndarray, clip_bound: float) -> np.ndarray:
    """Scale the delta into the l2 ball of radius clip_bound."""
    if clip_bound <= 0.0:
        raise ValueError("clip_bound must be positive")
    norm = float(np.linalg.norm(delta))
    if norm <= clip_bound:
        return delta
    return delta * (clip_bound / norm)


def aggregate(deltas: list[UpdateDelta], w_t: np.ndarray, clip_bound: float) -> np.ndarray:
    """n-weighted mean of clipped deltas applied to the broadcast weights.

    With no samples among the deltas the mean moves nothing: a copy of w_t.
    """
    usable = [d for d in deltas if d.n_samples > 0]
    total = sum(d.n_samples for d in usable)
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
    """Runs Algorithm phases broadcast / local train / clip / aggregate / noise.

    It keeps the windows only packed (`local_data`, `test_tokens`), not the
    client datasets or window lists it was built from.
    """

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
        self.cfg = cfg
        self.ledger = ledger
        self.local_data = [LocalData.from_client(c, state.config) for c in clients]
        self.test_tokens = model_ops.pack_keys(test_sequences, state.config)
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
        deltas = local_train(
            Cohort(tuple(self.local_data[k] for k in participants)), self.state, global_flat,
            cfg, [self._round_rng(_STREAM_CLIENT, round_idx, k) for k in participants],
        )

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
            m = self.run_round(round_idx)
            log.info(
                "round %d: f1=%.4f auc=%.4f eps_rdp=%.4g",
                round_idx, m.f1, m.roc_auc, m.eps_spent,
            )
        return self.metrics
