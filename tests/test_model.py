"""Model: LoRA algebra, packed forward, analytic gradients, checkpoints."""

import copy
import json
import struct
import warnings

import numpy as np
import pytest

import flog.model as M
from flog.model import (
    ModelConfig,
    backward,
    class_weights_from_labels,
    forward,
    init,
    loss,
    score,
    token_ids_from_keys,
)


def tiny_config(**kw):
    base = dict(
        vocab_size=12,
        hidden_dim=8,
        head_dim=8,
        n_heads=1,
        n_layers=1,
        lora_rank=2,
        lora_alpha=16.0,
        lora_dropout=0.0,
        max_sequence_length=16,
        ffn_dim=12,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            tiny_config(vocab_size=2)
        with pytest.raises(ValueError):
            tiny_config(lora_rank=0)
        with pytest.raises(ValueError):
            tiny_config(lora_rank=5)  # > hidden_dim / 2
        with pytest.raises(ValueError):
            tiny_config(n_heads=3)
        with pytest.raises(ValueError):
            tiny_config(lora_dropout=1.0)

    def test_scale(self):
        assert tiny_config().scale == 8.0


class TestTokenMapping:
    def test_shift_by_reserved(self):
        ids = token_ids_from_keys([0, 1, 5], 12)
        assert ids.tolist() == [2, 3, 7]

    def test_out_of_range_to_unk(self):
        ids = token_ids_from_keys([-3, 50], 12)
        assert ids.tolist() == [M.UNK_ID, M.UNK_ID]


class TestForward:
    def test_identity_at_init(self):
        # With B = 0 the bypass vanishes: forward equals the adapter-free
        # computation bit-exactly.
        state = init(tiny_config(), 0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            seq = rng.integers(0, 12, size=rng.integers(1, 16))
            y, cache = forward(state, seq)
            y_base = base_forward(state, seq)
            assert y == y_base

    def test_probability_range(self):
        state = init(tiny_config(), 3)
        y, _ = forward(state, [1, 2, 3])
        assert 0.0 < y < 1.0

    def test_positional_sensitivity(self):
        # Permuting positional embeddings changes the score of an
        # asymmetric sequence.
        state = init(tiny_config(), 4)
        rng = np.random.default_rng(4)
        state.set_trainable(rng.normal(0, 0.3, size=state.n_trainable))
        seq = [2, 7, 3, 5]
        y1, _ = forward(state, seq)
        state.frozen["pos"][:4] = state.frozen["pos"][[3, 1, 0, 2]]
        y2, _ = forward(state, seq)
        assert y1 != y2

    def test_rejects_bad_input(self):
        state = init(tiny_config(), 0)
        with pytest.raises(ValueError):
            forward(state, [])
        with pytest.raises(ValueError):
            forward(state, list(range(17)))
        with pytest.raises(ValueError):
            forward(state, [1], mode="predict")

    def test_rejects_empty_group(self):
        state = init(tiny_config(), 0)
        cohort = state.with_trainable(np.tile(state.get_trainable(), (3, 1)))
        with pytest.raises(ValueError, match="groups"):
            forward(cohort, [[1, 2], [3], [4]], groups=[2, 0, 1])

    def test_train_dropout_requires_rng(self):
        state = init(tiny_config(lora_dropout=0.5), 0)
        with pytest.raises(ValueError):
            forward(state, [1, 2], mode="train")

    def test_sigmoid_saturates_without_overflow(self):
        # exp(-z) overflows to inf below z ~ -709, and 1 / (1 + inf) is 0.0.
        state = init(tiny_config(), 0)
        state.head_b[...] = -1000.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert forward(state, [1, 2, 3])[0] == 0.0

    def test_eval_ignores_dropout(self):
        cfg = tiny_config(lora_dropout=0.5)
        state = init(cfg, 0)
        y1, _ = forward(state, [1, 2, 3])
        y2, _ = forward(state, [1, 2, 3])
        assert y1 == y2


def base_forward(state, key_ids, bypass=lambda l, p, H: 0.0):
    """Per-sequence oracle: the plain transformer over the sequence's rows.

    Each projection p of layer l is H W_p + bypass(l, p, H), and the head
    reads the last row. The default bypass is none: the adapter-free model.
    """
    cfg = state.config
    ids = np.asarray(key_ids, dtype=np.int64)
    ids = np.where((ids < 0) | (ids >= cfg.vocab_size), M.UNK_ID, ids)
    T = len(ids)
    H = state.frozen["embed"][ids] + state.frozen["pos"][:T]
    d_k = cfg.head_dim
    for l in range(cfg.n_layers):
        Q, K, V = (H @ state.frozen[f"W{p}_{l}"] + bypass(l, p, H) for p in "qkv")
        O = np.empty_like(H)
        for h in range(cfg.n_heads):
            sl = slice(h * d_k, (h + 1) * d_k)
            S = Q[:, sl] @ K[:, sl].T / np.sqrt(d_k)
            Z = S - S.max(axis=1, keepdims=True)
            E = np.exp(Z)
            P = E / E.sum(axis=1, keepdims=True)
            O[:, sl] = P @ V[:, sl]
        H1 = H + O @ state.frozen[f"Wo_{l}"]
        H = H1 + np.maximum(H1 @ state.frozen[f"W1_{l}"], 0.0) @ state.frozen[f"W2_{l}"]
    z = float(H[-1] @ state.head_w + state.head_b[0])
    return 1.0 / (1.0 + np.exp(-z))


def lora_forward(state, key_ids, masks=None):
    """Dense LoRA oracle for one sequence of a one-row model.

    Each projection is H (W + (alpha/r) B A), with the adapters read by
    their layout names. Given `masks`, masks[l][p] is projection p's
    dropout mask over the sequence's rows in layer l, and it multiplies the
    bypass input alone: H W + (H o M) (alpha/r) B A.
    """
    adapters, scale = state.adapters, state.config.scale

    def bypass(l, p, H):
        X = H if masks is None else H * masks[l][p]
        return X @ (scale * adapters[f"B{p}_{l}"] @ adapters[f"A{p}_{l}"])

    return base_forward(state, key_ids, bypass)


def replay_masks(gen, lengths, cfg):
    """The dropout masks of a one-row call on sequences of `lengths`, per sequence.

    They come from `gen` in `forward`'s order: per layer the q rows, then
    the k rows, then the v rows. An inner layer's q rows are all rows; the
    final layer's are the sequences' last rows, so a sequence's q mask there
    is ones but on its last row, the only row whose query the head reads.
    """
    d, keep, n = cfg.hidden_dim, 1.0 - cfg.lora_dropout, sum(lengths)
    masks = [[] for _ in lengths]
    for l in range(cfg.n_layers):
        final = l == cfg.n_layers - 1
        q, k, v = ((gen.random((m, d)) < keep) / keep for m in (len(lengths) if final else n, n, n))
        for j, end in enumerate(np.cumsum(lengths)):
            rows = slice(end - lengths[j], end)
            if final:
                mq = np.ones((lengths[j], d))
                mq[-1] = q[j]
            else:
                mq = q[rows]
            masks[j].append({"q": mq, "k": k[rows], "v": v[rows]})
    return masks


class TestLoraOracle:
    """A cohort call of `forward` against `lora_forward` on each client's sequences."""

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_cohort_forward_equals_dense_lora(self, n_layers, n_heads, mode):
        cfg = tiny_config(n_layers=n_layers, n_heads=n_heads, head_dim=8 // n_heads,
                          lora_dropout=0.3)
        state = init(cfg, 17)
        rng = np.random.default_rng(40 + 4 * n_layers + n_heads)
        rows = rng.normal(0.0, 0.3, size=(3, state.n_trainable))
        # Unequal groups; client 1 holds one single-row sequence.
        lengths = [(5, 16, 2), (1,), (3, 1, 9, 4)]
        seqs = [[rng.integers(0, cfg.vocab_size, size=t) for t in ts] for ts in lengths]
        gens = [np.random.default_rng([11, c]) for c in range(3)]
        replays = [copy.deepcopy(g) for g in gens]

        probs, _ = forward(state.with_trainable(rows), [s for group in seqs for s in group],
                           mode, gens, groups=[len(ts) for ts in lengths])
        want = []
        for row, group, ts, gen in zip(rows, seqs, lengths, replays):
            solo = state.with_trainable(row)
            masks = replay_masks(gen, ts, cfg) if mode == "train" else [None] * len(group)
            want += [lora_forward(solo, seq, m) for seq, m in zip(group, masks)]
        np.testing.assert_allclose(probs, want, rtol=1e-12, atol=0.0)


class TestPacking:
    """Packed batches against B=1 calls of the same engine."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_batch_equals_single_calls(self, n_layers, n_heads):
        cfg = tiny_config(n_layers=n_layers, n_heads=n_heads, head_dim=8 // n_heads)
        state = init(cfg, 3)
        rng = np.random.default_rng(10 * n_layers + n_heads)
        state.set_trainable(rng.normal(0.0, 0.3, size=state.n_trainable))
        anchor = rng.normal(0.0, 0.3, size=state.n_trainable)
        # Heavy-tailed lengths in [1, max_sequence_length], both ends present.
        lengths = np.minimum(1 + rng.pareto(1.0, size=24).astype(int), cfg.max_sequence_length)
        lengths[:2] = 1, cfg.max_sequence_length
        seqs = [rng.integers(0, cfg.vocab_size, size=t) for t in lengths]
        labels = rng.integers(0, 2, size=len(seqs))
        weights, mu = (0.7, 3.1), 0.05

        probs, cache = forward(state, seqs)
        grad = backward(state, cache, labels, weights, mu, anchor)
        single_probs = np.array([forward(state, seq)[0] for seq in seqs])
        single_grad = sum(
            backward(state, forward(state, seq)[1], y, weights, mu, anchor)
            for seq, y in zip(seqs, labels)
        )
        np.testing.assert_allclose(probs, single_probs, rtol=1e-12, atol=0.0)
        assert np.linalg.norm(grad - single_grad) <= 1e-12 * np.linalg.norm(single_grad)

    def test_score_matches_single_calls_across_chunks(self, monkeypatch):
        monkeypatch.setattr(M, "EVAL_ROWS", 20)  # many chunks of a few sequences
        state = init(tiny_config(), 5)
        rng = np.random.default_rng(5)
        state.set_trainable(rng.normal(0.0, 0.3, size=state.n_trainable))
        seqs = [rng.integers(0, 12, size=rng.integers(1, 17)) for _ in range(40)]
        want = [float(forward(state, seq)[0]) for seq in seqs]
        np.testing.assert_allclose(score(state, M.pack(seqs, state.config)), want,
                                   rtol=1e-12, atol=0.0)
        assert score(state, M.pack(seqs[:1], state.config)) == want[:1]
        assert score(state, M.pack([], state.config)) == []


class TestCohort:
    """A cohort call against each client's solo calls of the same engine."""

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_cohort_call_equals_solo_calls(self, n_layers, dropout):
        cfg = tiny_config(n_layers=n_layers, n_heads=2, head_dim=4, lora_dropout=dropout)
        state = init(cfg, 9)
        rng = np.random.default_rng(20 + n_layers)
        W = rng.normal(0.0, 0.3, size=(3, state.n_trainable))
        anchor = rng.normal(0.0, 0.3, size=state.n_trainable)
        weights = np.array([(0.7, 3.1), (1.0, 1.0), (2.0, 0.5)])
        # Client 1 holds one single-row sequence.
        lengths = [(5, 16, 2), (1,), (3, 1, 9, 4)]
        seqs = [[rng.integers(0, cfg.vocab_size, size=t) for t in ts] for ts in lengths]
        labels = [rng.integers(0, 2, size=len(ts)) for ts in lengths]
        mu = 0.05

        cohort = state.with_trainable(W.copy())
        probs, cache = forward(cohort, [s for group in seqs for s in group], "train",
                               [np.random.default_rng([5, c]) for c in range(3)],
                               groups=[len(ts) for ts in lengths])
        grad = backward(cohort, cache, np.concatenate(labels), weights, mu, anchor)
        assert grad.shape == W.shape

        at = 0
        for c in range(3):
            solo = state.with_trainable(W[c].copy())
            p, solo_cache = forward(solo, seqs[c], "train", np.random.default_rng([5, c]))
            g = backward(solo, solo_cache, labels[c], weights[c], mu, anchor)
            np.testing.assert_allclose(probs[at:at + len(p)], p, rtol=1e-12, atol=0.0)
            assert np.linalg.norm(grad[c] - g) <= 1e-12 * np.linalg.norm(g)
            at += len(p)


class TestPackedInput:
    """A `Packed` batch against the list of sequences it was packed from."""

    def test_pack_arrays(self):
        cfg = tiny_config()
        batch = M.pack([[3, 40, -1], [5], np.array([7, 8])], cfg)
        assert len(batch) == 3
        assert batch.ids.dtype == np.int32
        assert batch.ids.tolist() == [3, M.UNK_ID, M.UNK_ID, 5, 7, 8]
        assert batch.lengths.tolist() == [3, 1, 2]
        keys = M.pack_keys([(1, 50), (0,)], cfg)
        assert keys.ids.dtype == np.int32
        assert keys.ids.tolist() == [3, M.UNK_ID, 2] and keys.lengths.tolist() == [2, 1]
        with pytest.raises(ValueError):
            M.pack([[1], []], cfg)
        with pytest.raises(ValueError):
            M.pack_keys([tuple(range(17))], cfg)

    def test_take_runs_and_join(self):
        cfg = tiny_config()
        seqs = [[3, 4, 5], [6], [7, 8], [9, 10, 11, 2]]
        batch = M.pack(seqs, cfg)
        order = np.array([2, 0, 3, 1])
        taken, want = batch.take(order), M.pack([seqs[j] for j in order], cfg)
        assert taken.ids.dtype == np.int32
        np.testing.assert_array_equal(taken.ids, want.ids)
        np.testing.assert_array_equal(taken.lengths, want.lengths)
        runs = list(batch.runs([(0, 1), (1, 3), (3, 4)]))
        assert [run.ids.tolist() for run in runs] == [[3, 4, 5], [6, 7, 8], [9, 10, 11, 2]]
        assert [len(run) for run in runs] == [1, 2, 1]
        assert all(np.shares_memory(run.ids, batch.ids) for run in runs)
        joined = M.Packed.join(runs)
        np.testing.assert_array_equal(joined.ids, batch.ids)
        np.testing.assert_array_equal(joined.lengths, batch.lengths)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_packed_equals_list_bit_for_bit(self, n_layers, n_heads, dropout):
        cfg = tiny_config(n_layers=n_layers, n_heads=n_heads, head_dim=8 // n_heads,
                          lora_dropout=dropout)
        state = init(cfg, 13)
        rng = np.random.default_rng(30 + 4 * n_layers + n_heads)
        cohort = state.with_trainable(rng.normal(0.0, 0.3, size=(3, state.n_trainable)))
        anchor = rng.normal(0.0, 0.3, size=state.n_trainable)
        weights = np.array([(0.7, 3.1), (1.0, 1.0), (2.0, 0.5)])
        # C=3; client 1's group is one window. Ids outside the vocabulary too.
        lengths = [(5, 16, 2), (1,), (3, 1, 9, 4)]
        seqs = [rng.integers(-2, cfg.vocab_size + 3, size=t) for ts in lengths for t in ts]
        labels = rng.integers(0, 2, size=len(seqs))
        groups = [len(ts) for ts in lengths]

        def run(batch):
            gens = [np.random.default_rng([7, c]) for c in range(3)]
            probs, cache = forward(cohort, batch, "train", gens, groups=groups)
            return probs, backward(cohort, cache, labels, weights, 0.05, anchor)

        want_probs, want_grad = run(seqs)
        got_probs, got_grad = run(M.pack(seqs, cfg))
        np.testing.assert_array_equal(got_probs, want_probs)
        np.testing.assert_array_equal(got_grad, want_grad)


class TestGradients:
    def _loss_at(self, state, flat, seq, y, weights, mu, anchor):
        probe = state.copy()
        probe.set_trainable(flat)
        y_hat, _ = forward(probe, seq)
        return loss(y_hat, y, weights, flat, anchor, mu)

    def test_finite_difference_oracle(self):
        # d=8, d_k=8, 1 head, L=1, r=2, T=4, central differences h=1e-5.
        h = 1e-5
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            state = init(tiny_config(), seed)
            flat = rng.normal(0.0, 0.3, size=state.n_trainable)
            state.set_trainable(flat)
            anchor = rng.normal(0.0, 0.3, size=state.n_trainable)
            seq = rng.integers(0, 12, size=4)
            y = int(rng.integers(0, 2))
            weights = (0.7, 3.1)
            mu = 0.05

            _, cache = forward(state, seq)
            g = backward(state, cache, y, weights, mu, anchor)

            num = np.zeros_like(g)
            for i in range(len(flat)):
                up, down = flat.copy(), flat.copy()
                up[i] += h
                down[i] -= h
                num[i] = (
                    self._loss_at(state, up, seq, y, weights, mu, anchor)
                    - self._loss_at(state, down, seq, y, weights, mu, anchor)
                ) / (2 * h)
            denom = np.maximum(np.abs(num), 1e-8)
            worst = max(worst, float(np.max(np.abs(g - num) / denom)))
        assert worst < 1e-4

    @pytest.mark.parametrize("lora_dropout", [0.0, 0.3])
    def test_finite_difference_batched_train_dropout(self, lora_dropout):
        # L=2, 2 heads, train mode, one packed batch of three sequences. At
        # dropout 0 each bypass is merged into its weight; at 0.3 re-seeding
        # the rng fixes the masks for every loss.
        cfg = tiny_config(n_layers=2, n_heads=2, head_dim=4, lora_dropout=lora_dropout,
                          max_sequence_length=8)
        h, weights, mu = 1e-5, (0.7, 3.1), 0.05
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            state = init(cfg, seed)
            flat = rng.normal(0.0, 0.3, size=state.n_trainable)
            state.set_trainable(flat)
            anchor = rng.normal(0.0, 0.3, size=state.n_trainable)
            seqs = [rng.integers(0, 12, size=t) for t in (1, 3, 8)]
            labels = rng.integers(0, 2, size=3)

            def batch_loss(vec):
                probe = state.copy()
                probe.set_trainable(vec)
                probs, _ = forward(probe, seqs, "train", np.random.default_rng([seed, 1]))
                return sum(loss(p, y, weights, vec, anchor, mu) for p, y in zip(probs, labels))

            _, cache = forward(state, seqs, "train", np.random.default_rng([seed, 1]))
            g = backward(state, cache, labels, weights, mu, anchor)
            num = np.zeros_like(g)
            for i in range(len(flat)):
                step = np.zeros_like(flat)
                step[i] = h
                num[i] = (batch_loss(flat + step) - batch_loss(flat - step)) / (2 * h)
            denom = np.maximum(np.abs(num), 1e-8)
            worst = max(worst, float(np.max(np.abs(g - num) / denom)))
        assert worst < 1e-4

    def test_prox_gradient_zero_at_anchor(self):
        state = init(tiny_config(), 0)
        seq = [1, 2, 3, 4]
        anchor = state.get_trainable()
        _, cache = forward(state, seq)
        g_with = backward(state, cache, 1, (1.0, 1.0), mu=5.0, w_anchor=anchor)
        g_without = backward(state, cache, 1, (1.0, 1.0), mu=0.0)
        np.testing.assert_array_equal(g_with, g_without)

    def test_gradient_covers_only_trainable_slots(self):
        state = init(tiny_config(), 0)
        _, cache = forward(state, [1, 2])
        g = backward(state, cache, 0, (1.0, 1.0))
        assert g.shape == (state.n_trainable,)
        n_adapters = sum(a.size for a in state.adapters.values())
        assert state.n_trainable == n_adapters + state.config.hidden_dim + 1


class TestLoss:
    def test_proximal_term_value(self):
        # mu=0.01, ||w - w_t|| = 2, zero cross-entropy part is impossible to
        # construct exactly, so isolate the proximal term by differencing.
        w = np.zeros(4)
        anchor = np.array([2.0, 0.0, 0.0, 0.0])
        base = loss(0.5, 1, (1.0, 1.0))
        with_prox = loss(0.5, 1, (1.0, 1.0), w, anchor, mu=0.01)
        assert with_prox - base == pytest.approx(0.02, rel=1e-12)

    def test_weighted_ce(self):
        got = loss(0.25, 1, (1.0, 4.0))
        assert got == pytest.approx(-4.0 * np.log(0.25), rel=1e-12)

    def test_clamps_extreme_probabilities(self):
        assert np.isfinite(loss(0.0, 1, (1.0, 1.0)))
        assert np.isfinite(loss(1.0, 0, (1.0, 1.0)))


class TestClassWeights:
    def test_formula(self):
        labels = [1] * 10 + [0] * 90
        w0, w1 = class_weights_from_labels(labels)
        assert w0 == pytest.approx(100 / 180)
        assert w1 == pytest.approx(5.0)

    def test_balanced(self):
        assert class_weights_from_labels([0, 1]) == (1.0, 1.0)

    def test_single_class_warns(self):
        with pytest.warns(UserWarning):
            assert class_weights_from_labels([0, 0]) == (1.0, 1.0)


class TestStateAndCheckpoint:
    def test_flat_round_trip(self):
        state = init(tiny_config(), 0)
        rng = np.random.default_rng(5)
        flat = rng.normal(size=state.n_trainable)
        state.set_trainable(flat)
        np.testing.assert_array_equal(state.get_trainable(), flat)

    def test_copy_shares_frozen_but_not_trainable(self):
        state = init(tiny_config(), 0)
        clone = state.copy()
        assert clone.frozen is state.frozen
        clone.set_trainable(np.ones(state.n_trainable))
        assert not np.array_equal(state.get_trainable(), clone.get_trainable())

    def test_save_load_round_trip(self, tmp_path):
        cfg = tiny_config()
        state = init(cfg, 0)
        state.set_trainable(np.random.default_rng(6).normal(size=state.n_trainable))
        path = tmp_path / "model.ckpt"
        state.save(path)
        other = init(cfg, 99)
        other.load(path)
        for name, arr in state.all_tensors().items():
            np.testing.assert_array_equal(other.all_tensors()[name], arr)
        np.testing.assert_array_equal(other.get_trainable(), state.get_trainable())

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_loaded_weights_reach_the_engine(self, tmp_path, n_layers):
        # `load` writes into the model's tensors in place, and the engine
        # must read those same tensors, also through a clone made before
        # the load: every call then equals the saved model's bit for bit.
        cfg = tiny_config(n_layers=n_layers, lora_dropout=0.3)
        saved = init(cfg, 0)
        saved.set_trainable(np.random.default_rng(8).normal(size=saved.n_trainable))
        path = tmp_path / "model.ckpt"
        saved.save(path)
        loaded = init(cfg, 99)
        clone = loaded.with_trainable(loaded.trainable)
        loaded.load(path)
        seqs, labels = [[1, 4, 2], [3], [5, 0, 9, 2, 7]], [1, 0, 1]

        def calls(state):
            p_eval, _ = forward(state, seqs)
            p_train, cache = forward(state, seqs, mode="train", rng=np.random.default_rng(3))
            return p_eval, p_train, backward(state, cache, labels, (1.0, 2.0))

        expected = calls(saved)
        for state in (loaded, clone):
            for got, want in zip(calls(state), expected):
                np.testing.assert_array_equal(got, want)

    def test_save_deterministic_bytes(self, tmp_path):
        state = init(tiny_config(), 0)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        state.save(p1)
        state.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_truncated_file(self, tmp_path):
        state = init(tiny_config(), 0)
        path = tmp_path / "model.ckpt"
        state.save(path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="'pos'"):  # the last tensor in the file
            init(tiny_config(), 0).load(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda raw: b"", "too short for a checkpoint header"),
        (lambda raw: raw[:2], "too short for a checkpoint header"),
        (lambda raw: raw[:20], "manifest truncated"),
        (lambda raw: b"garbage\n", "manifest truncated"),
        (lambda raw: struct.pack("<I", 3) + b"{x}", "manifest is not JSON"),
        (lambda raw: struct.pack("<I", 2) + b"\xff\xfe", "manifest is not JSON"),
        (lambda raw: struct.pack("<I", 2) + b"{}", "not a list of tensor entries"),
        (lambda raw: struct.pack("<I", 4) + b"[17]", "not a list of tensor entries"),
    ])
    def test_load_names_the_file_when_the_manifest_is_unreadable(self, tmp_path, damage,
                                                                 message):
        path = tmp_path / "model.ckpt"
        init(tiny_config(), 0).save(path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=message) as info:
            init(tiny_config(), 0).load(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_load_rejects_missing_tensor(self, tmp_path):
        state = init(tiny_config(), 0)
        path = tmp_path / "model.ckpt"
        state.save(path)
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[:4])
        manifest = [e for e in json.loads(raw[4 : 4 + n]) if e["name"] != "head_w"]
        blob = json.dumps(manifest).encode("utf-8")
        path.write_bytes(struct.pack("<I", len(blob)) + blob + raw[4 + n :])
        with pytest.raises(ValueError, match="'head_w'"):
            init(tiny_config(), 0).load(path)

    def test_set_trainable_rejects_wrong_length(self):
        state = init(tiny_config(), 0)
        with pytest.raises(ValueError, match="flat vector length does not match layout"):
            state.set_trainable(np.zeros(state.n_trainable + 1))

    @pytest.mark.parametrize("edit, tail, message", [
        # A second 'head_b' of value 7.0, its data appended after the last tensor.
        (lambda m: [*m, {"name": "head_b", "offset": 777, "length": 1, "shape": [1]}],
         struct.pack("<d", 7.0), "tensor 'head_b' is listed twice"),
        (lambda m: [*m, {"name": "extra", "offset": 777, "length": 1, "shape": [1]}],
         struct.pack("<d", 7.0), "tensor 'extra' is not part of the model"),
        (lambda m: [{**e, "shape": [8, 16]} if e["name"] == "pos" else e for e in m], b"",
         r"tensor 'pos' has shape \[8, 16\], the model expects \[16, 8\]"),
        (lambda m: [{**e, "length": 2} if e["name"] == "head_b" else e for e in m], b"",
         r"tensor 'head_b' has length 2 for shape \[1\]"),
        (lambda m: m, b"\0" * 8, "8 bytes after tensor 'pos'"),
    ], ids=["listed-twice", "unknown", "shape", "length", "trailing-bytes"])
    def test_load_names_the_tensor_the_manifest_gets_wrong(self, tmp_path, edit, tail,
                                                           message):
        path = tmp_path / "model.ckpt"
        init(tiny_config(), 0).save(path)
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[:4])
        assert sum(e["length"] for e in json.loads(raw[4 : 4 + n])) == 777  # appended data
        blob = json.dumps(edit(json.loads(raw[4 : 4 + n]))).encode("utf-8")
        path.write_bytes(struct.pack("<I", len(blob)) + blob + raw[4 + n :] + tail)
        with pytest.raises(ValueError, match=message) as info:
            init(tiny_config(), 0).load(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_read_checkpoint_rejects_a_tensor_listed_twice_without_shapes(self, tmp_path):
        # `flog evaluate` checks the file this way before it knows the model.
        path = tmp_path / "model.ckpt"
        init(tiny_config(), 0).save(path)
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[:4])
        manifest = json.loads(raw[4 : 4 + n])
        manifest.append({**manifest[0], "offset": 777})
        blob = json.dumps(manifest).encode("utf-8")
        path.write_bytes(struct.pack("<I", len(blob)) + blob + raw[4 + n :] + raw[-128:])
        with pytest.raises(ValueError, match=f"tensor '{manifest[0]['name']}' is listed twice"):
            M.read_checkpoint(path)

    def test_init_deterministic(self):
        s1, s2 = init(tiny_config(), 7), init(tiny_config(), 7)
        for name, arr in s1.all_tensors().items():
            np.testing.assert_array_equal(s2.all_tensors()[name], arr)

    def test_b_zero_and_head_zero_at_init(self):
        state = init(tiny_config(), 0)
        for name, arr in state.adapters.items():
            if name.startswith("B"):
                assert not arr.any()
        assert not state.head_w.any() and not state.head_b.any()
