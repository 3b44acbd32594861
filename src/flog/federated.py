"""Federated orchestration: broadcast, local FedProx training, clipping,
n-weighted aggregation, and central Gaussian noising.

A round's release is one pass over the cohort's (C, P) update matrix:
`aggregate` clips and weighs its rows and returns the l2 sensitivity its
weighting guarantees, and `add_noise` adds Gaussian noise of std sigma
times that sensitivity, at the sigma the ledger accounts. Noise touches
only the communicated (trainable) coordinates.

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
its own optimizer step. A client's windows come in its
`windows.WindowColumns`, packed once per run into one `model.Packed`
(`LocalData.from_columns`). They keep that form up to the engine call:
reordered once per epoch right after its permutation (`Packed.take`),
cut into micro-batches that view that packing (`Packed.runs`), and joined
into a call with one concatenate per array (`Packed.join`).

All randomness is derived from the run seed through named sub-streams,
and each client draws from its own stream in the order it would if
trained alone, so its update equals its solo training up to rounding.
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import model as model_ops
from .accountant import PrivacyLedger
from .bounds import bounded, check
from .metrics import RoundMetrics, evaluate
from .model import ModelConfig, ModelState
from .partition import ClientDataset
from .windows import WindowColumns

log = logging.getLogger(__name__)

_STREAM_SELECT = 1
_STREAM_CLIENT = 2
_STREAM_SERVER = 3


@dataclass(frozen=True)
class FedConfig:
    k_clients: int = bounded(ge=1)
    rounds: int = bounded(ge=1)
    participation_rate: float = bounded(1.0, gt=0, le=1)
    local_epochs: int = bounded(1, ge=0)
    learning_rate: float = bounded(2e-5, ge=0)
    proximal_mu: float = bounded(0.01, ge=0)
    clip_bound: float = bounded(1.0, gt=0)
    noise_multiplier: float = bounded(0.01, ge=0)
    batch_size: int = bounded(8, ge=1)
    weight_decay: float = bounded(0.0, ge=0)
    warmup_ratio: float = bounded(0.0, ge=0, le=1)
    grad_accum_steps: int = bounded(1, ge=1)
    # A negative max_grad_norm would flip every clipped step into ascent.
    max_grad_norm: float = bounded(1.0, gt=0)
    # The run seed comes from `flog --seed`; a config file cannot set it.
    seed: int = bounded(0, ge=0, metadata={"option": "--seed"})

    def __post_init__(self) -> None:
        check(self)


def select_participants(k_clients: int, q: float, rng: np.random.Generator) -> list[int]:
    """Poisson sampling: each client independently with probability q; may be empty."""
    return np.flatnonzero(rng.random(k_clients) < q).tolist()


@dataclass(frozen=True)
class LocalData:
    """One client's training windows, packed as token ids, with labels and class weights."""

    windows: model_ops.Packed
    labels: np.ndarray
    class_weights: tuple[float, float]

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @classmethod
    def from_client(cls, client: ClientDataset, config: ModelConfig) -> "LocalData":
        """Pack every window's keys once, as `from_columns` does."""
        columns = WindowColumns()
        columns.extend(client.sequences)
        return cls.from_columns(columns, client.client_id, config)

    @classmethod
    def from_columns(cls, columns: WindowColumns, client_id: int,
                     config: ModelConfig) -> "LocalData":
        """Client `client_id`'s windows, packed once by `WindowColumns.pack`.

        Raises ValueError naming the client for a window without keys, or
        with more than the model's max_sequence_length.
        """
        try:
            windows = columns.pack(config)
        except ValueError as exc:
            raise ValueError(f"client {client_id}: {exc}") from None
        labels = np.frombuffer(columns.labels, np.uint8).astype(np.int64)
        weights = model_ops.class_weights_from_labels(labels) if len(labels) else (1.0, 1.0)
        return cls(windows, labels, weights)


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
) -> np.ndarray:
    """E epochs of mini-batch FedProx SGD from the broadcast weights, per client.

    Returns the updates W - w_t, unclipped. `clients` is a Cohort with one
    generator per member in `rng`, and gets a (C, P) matrix with one row
    per member, in member order; a member without windows gets a zero row.
    A bare ClientDataset with one generator is a cohort of one and gets its
    1-D row.

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
    # Warmup over 0 steps or over 1 both start at the full learning rate.
    warmup_steps = np.maximum(np.round(cfg.warmup_ratio * -(-n_micro // accum)), 1)
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
        # Every step ending here averages its i % accum + 1 micro-batches:
        # accum, or fewer at a client's last step when n_micro % accum != 0.
        step_g = g[done] / (i % accum + 1)
        norms = l2_norms(step_g)
        step_g *= (cfg.max_grad_norm / np.maximum(norms, cfg.max_grad_norm))[:, None]
        lr = cfg.learning_rate * np.minimum(1.0, (i // accum + 1) / warmup_steps[done])
        w = W[done] - lr[:, None] * step_g
        if cfg.weight_decay > 0.0:
            w -= (lr * cfg.weight_decay)[:, None] * w
        W[done] = w
        g[done] = 0.0

    deltas = W - global_flat
    return deltas[0] if solo else deltas


def l2_norms(rows: Iterable[np.ndarray]) -> list[float]:
    """The l2 norm of each row, as np.linalg.norm computes it for a vector.

    A finite row whose sum of squares overflows is scaled by its largest
    magnitude first, so its norm reads inf only past the largest float.
    """
    norms = []
    with np.errstate(over="ignore"):
        for row in rows:
            norm = math.sqrt(row.dot(row))
            if norm == math.inf and np.isfinite(row).all():
                top = float(np.abs(row).max())
                unit = row / top
                norm = top * math.sqrt(unit.dot(unit))
            norms.append(norm)
    return norms


def clip_update(delta: np.ndarray, clip_bound: float) -> np.ndarray:
    """Scale the delta into the l2 ball of radius clip_bound."""
    if clip_bound <= 0.0:
        raise ValueError("clip_bound must be positive")
    [norm] = l2_norms([delta])
    if norm <= clip_bound:
        return delta
    return delta * (clip_bound / norm)


def aggregate(
    deltas: np.ndarray, n_samples: list[int], w_t: np.ndarray, clip_bound: float
) -> tuple[np.ndarray, float]:
    """w_t plus the n-weighted mean of the clipped rows of `deltas`, and its sensitivity.

    Row by row, row k is clipped to clip_bound and then weighed
    n_samples[k] / n, n the total; rows without samples are skipped. With
    no samples the mean moves nothing: a copy of w_t.

    The sensitivity is C = clip_bound under zero-out adjacency: replacing
    row k by 0, every weight n_k / n fixed, moves the output by at most C.
    Under add/remove adjacency n changes too, removing client k can move it
    by up to 2C n_k / n, and the bound fails; ROADMAP.md item 3a tracks it.

    Raises ValueError naming the row if a row with samples is not finite.
    """
    total = sum(n_samples)
    out = w_t.copy()
    for k, (delta, n) in enumerate(zip(deltas, n_samples, strict=True)):
        if n > 0:
            if not np.isfinite(delta).all():
                raise ValueError(f"update row {k} is not finite")
            out += (n / total) * clip_update(delta, clip_bound)
    return out, clip_bound


def add_noise(
    w_bar: np.ndarray, sigma: float, sensitivity: float, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. Gaussian noise with std sigma * sensitivity per trainable coordinate."""
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return w_bar
    return w_bar + rng.normal(0.0, sigma * sensitivity, size=w_bar.shape)


class FederatedTrainer:
    """Runs Algorithm phases broadcast / local train / clip / aggregate / noise.

    It keeps the windows only packed (`local_data`, `test_tokens`), not the
    client datasets or window lists it was built from. Each client comes
    as a `ClientDataset` or already packed as `LocalData`, and the test
    windows as event-id sequences or already packed.
    """

    def __init__(
        self,
        state: ModelState,
        clients: list[ClientDataset | LocalData],
        test_sequences: list | model_ops.Packed,
        test_labels: Iterable[int],
        cfg: FedConfig,
        ledger: PrivacyLedger,
    ) -> None:
        if len(clients) != cfg.k_clients:
            raise ValueError(f"{len(clients)} clients given for k_clients = {cfg.k_clients}")
        if ledger.noise_multiplier != cfg.noise_multiplier:
            raise ValueError(f"ledger at noise_multiplier = {ledger.noise_multiplier} given "
                             f"for noise_multiplier = {cfg.noise_multiplier}")
        if ledger.total_rounds != cfg.rounds:
            raise ValueError(f"ledger over total_rounds = {ledger.total_rounds} given "
                             f"for rounds = {cfg.rounds}")
        self.state = state
        self.cfg = cfg
        self.ledger = ledger
        self.local_data = [c if isinstance(c, LocalData) else LocalData.from_client(c, state.config)
                           for c in clients]
        self.test_tokens = (test_sequences if isinstance(test_sequences, model_ops.Packed)
                            else model_ops.pack_keys(test_sequences, state.config))
        self.test_labels = list(test_labels)
        self.server_rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _STREAM_SERVER])
        )

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
        cohort = Cohort(tuple(self.local_data[k] for k in participants))
        deltas = local_train(
            cohort, self.state, global_flat, cfg,
            [self._round_rng(_STREAM_CLIENT, round_idx, k) for k in participants],
        )
        n_samples = [m.n_samples for m in cohort.members]
        pre_clip = [norm for norm, n in zip(l2_norms(deltas), n_samples) if n > 0]

        w_bar, sensitivity = aggregate(deltas, n_samples, global_flat, cfg.clip_bound)
        w_next = add_noise(w_bar, self.ledger.noise_multiplier, sensitivity, self.server_rng)
        self.state.set_trainable(w_next)
        self.ledger.update()

        scores, labels = self.evaluate_global()
        m = RoundMetrics(
            round=round_idx,
            participants=len(participants),
            **evaluate(scores, labels),
            eps_spent=self.ledger.eps_spent_rdp,
            mean_pre_clip_norm=float(np.mean(pre_clip)) if pre_clip else 0.0,
            wall_seconds=time.perf_counter() - t_start,
        )
        log.info("round %d: f1=%.4f auc=%.4f eps_rdp=%.4g",
                 round_idx, m.f1, m.roc_auc, m.eps_spent)
        return m

    def run(self) -> list[RoundMetrics]:
        """Runs every round in order; returns their rows."""
        return [self.run_round(round_idx) for round_idx in range(self.cfg.rounds)]
