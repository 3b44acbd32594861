"""Federated mechanics: sampling, local FedProx, clipping, aggregation, noise."""

import math

import numpy as np
import pytest

import flog.federated as federated
import flog.model as model_ops
from flog.accountant import PrivacyLedger
from flog.federated import (
    Cohort,
    FedConfig,
    FederatedTrainer,
    LocalData,
    UpdateDelta,
    add_noise,
    aggregate,
    clip_update,
    local_train,
    select_participants,
)
from flog.model import ModelConfig, forward, init, token_ids_from_keys
from flog.partition import ClientDataset
from flog.windows import WindowSequence


def tiny_model_config(**kw):
    base = dict(
        vocab_size=10,
        hidden_dim=4,
        head_dim=4,
        n_heads=1,
        n_layers=1,
        lora_rank=1,
        lora_alpha=4.0,
        lora_dropout=0.0,
        max_sequence_length=8,
        ffn_dim=6,
    )
    base.update(kw)
    return ModelConfig(**base)


def fed_config(**kw):
    base = dict(
        k_clients=2,
        rounds=2,
        participation_rate=1.0,
        local_epochs=1,
        learning_rate=0.1,
        proximal_mu=0.0,
        clip_bound=1.0,
        noise_multiplier=0.0,
        batch_size=4,
        weight_decay=0.0,
        warmup_ratio=0.0,
        grad_accum_steps=1,
        max_grad_norm=1e9,
        seed=0,
    )
    base.update(kw)
    return FedConfig(**base)


def mk_client(client_id, n, seed=0, node="n0"):
    rng = np.random.default_rng(seed)
    seqs = [
        WindowSequence(
            node_id=node,
            start_time=i,
            key_ids=tuple(int(k) for k in rng.integers(0, 8, size=4)),
            label=int(rng.random() < 0.4),
        )
        for i in range(n)
    ]
    return ClientDataset(client_id=client_id, sequences=seqs)


class TestFedConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            fed_config(k_clients=0)
        with pytest.raises(ValueError):
            fed_config(participation_rate=0.0)
        with pytest.raises(ValueError):
            fed_config(clip_bound=0.0)
        with pytest.raises(ValueError):
            fed_config(noise_multiplier=-1.0)
        with pytest.raises(ValueError):
            fed_config(warmup_ratio=1.5)
        for field, bad in (("max_grad_norm", 0.0), ("max_grad_norm", -1.0),
                           ("learning_rate", -0.1), ("weight_decay", -0.01)):
            with pytest.raises(ValueError, match=field):
                fed_config(**{field: bad})


class TestSelectParticipants:
    def test_monte_carlo_mean(self):
        # q=0.5, K=14: mean participants over 10,000 rounds within 5% of 7.
        rng = np.random.default_rng(0)
        total = sum(len(select_participants(14, 0.5, rng)) for _ in range(10_000))
        assert abs(total / 10_000 - 7.0) <= 0.35

    def test_empty_draws_at_poisson_rate(self):
        # No redraw: at K=5, q=0.01 a draw is empty with probability
        # (1 - q)^K ~ 0.951; the count over 10,000 draws stays within four
        # binomial standard deviations of that.
        rng = np.random.default_rng(1)
        n, p_empty = 10_000, 0.99 ** 5
        empty = sum(not select_participants(5, 0.01, rng) for _ in range(n))
        assert abs(empty - n * p_empty) <= 4 * np.sqrt(n * p_empty * (1 - p_empty))

    def test_full_participation(self):
        rng = np.random.default_rng(2)
        assert select_participants(4, 1.0, rng) == [0, 1, 2, 3]


class TestClip:
    def test_norm_two_scales_to_one(self):
        delta = np.array([2.0, 0.0])
        out = clip_update(delta, 1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0)
        np.testing.assert_allclose(out / np.linalg.norm(out), [1.0, 0.0])

    def test_inside_ball_unchanged_bit_exact(self):
        delta = np.array([0.3, 0.4])  # norm 0.5
        out = clip_update(delta, 1.0)
        assert out is delta

    def test_many_random_deltas_within_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            delta = rng.normal(0, 3, size=rng.integers(1, 20))
            assert np.linalg.norm(clip_update(delta, 1.0)) <= 1.0 + 1e-9

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            clip_update(np.ones(2), 0.0)


class TestAggregate:
    def test_equal_weight_mean(self):
        w_t = np.zeros(2)
        deltas = [
            UpdateDelta(0, np.array([1.0, 0.0]), 5, 1.0),
            UpdateDelta(1, np.array([0.0, 1.0]), 5, 1.0),
        ]
        np.testing.assert_allclose(aggregate(deltas, w_t, 1.0), [0.5, 0.5])

    def test_n_weighted_three_client_oracle(self):
        rng = np.random.default_rng(4)
        w_t = rng.normal(size=6)
        raw = [rng.normal(size=6) for _ in range(3)]
        raw = [clip_update(d, 1.0) for d in raw]
        ns = [10, 30, 60]
        deltas = [UpdateDelta(i, d, n, 1.0) for i, (d, n) in enumerate(zip(raw, ns))]
        want = w_t + sum((n / 100) * d for d, n in zip(raw, ns))
        np.testing.assert_allclose(aggregate(deltas, w_t, 1.0), want, rtol=1e-12)

    def test_zero_sample_clients_ignored(self):
        w_t = np.zeros(2)
        deltas = [
            UpdateDelta(0, np.array([1.0, 0.0]), 4, 1.0),
            UpdateDelta(1, np.array([5.0, 5.0]), 0, 0.0),
        ]
        np.testing.assert_allclose(aggregate(deltas, w_t, 10.0), [1.0, 0.0])

    def test_no_samples_returns_copy_of_broadcast(self):
        # The mean of no updates moves nothing, even a zero-sample delta that is not 0.
        w_t = np.array([0.1, -2.5, 3e-17])
        out = aggregate([UpdateDelta(0, np.array([5.0, 5.0, 5.0]), 0, 0.0)], w_t, 1.0)
        assert out is not w_t
        np.testing.assert_array_equal(out, w_t)
        assert out.tobytes() == w_t.tobytes()

    def test_unclipped_delta_asserts(self):
        deltas = [UpdateDelta(0, np.array([5.0, 0.0]), 4, 5.0)]
        with pytest.raises(AssertionError):
            aggregate(deltas, np.zeros(2), 1.0)


class TestNoise:
    def test_sigma_zero_is_identity(self):
        w = np.arange(4.0)
        rng = np.random.default_rng(0)
        assert add_noise(w, 0.0, 1.0, rng) is w

    def test_per_coordinate_variance(self):
        # Sample variance over 1e5 draws within 5% of (sigma C)^2.
        rng = np.random.default_rng(5)
        sigma, C = 0.7, 2.0
        draws = np.array([add_noise(np.zeros(1), sigma, C, rng)[0] for _ in range(100_000)])
        assert abs(draws.var() - (sigma * C) ** 2) <= 0.05 * (sigma * C) ** 2

    def test_l2_norm_concentration(self):
        # ||noise||_2 concentrates near sigma C sqrt(P) for large P.
        rng = np.random.default_rng(6)
        sigma, C, P = 0.5, 1.0, 10_000
        noise = add_noise(np.zeros(P), sigma, C, rng)
        want = sigma * C * np.sqrt(P)
        assert abs(np.linalg.norm(noise) - want) <= 0.10 * want

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(2), -0.1, 1.0, np.random.default_rng(0))


class TestLocalTrain:
    def test_empty_client_returns_zero_delta(self):
        state = init(tiny_model_config(), 0)
        flat = state.get_trainable()
        out = local_train(
            ClientDataset(0, []), state, flat, fed_config(), np.random.default_rng(0)
        )
        assert out.n_samples == 0
        assert not out.delta.any()

    def test_single_step_closed_form(self):
        # One sample, one epoch, batch >= n, no warmup: delta = -lr * grad.
        cfg = fed_config(local_epochs=1, batch_size=4, learning_rate=0.05)
        state = init(tiny_model_config(), 1)
        rng = np.random.default_rng(7)
        start = rng.normal(0, 0.2, size=state.n_trainable)
        state.set_trainable(start)
        client = mk_client(0, 1, seed=8)
        flat = state.get_trainable()

        probe = state.copy()
        seq = token_ids_from_keys(client.sequences[0].key_ids, state.config.vocab_size)
        _, cache = forward(probe, seq)
        with pytest.warns(UserWarning):  # single sample => single-class weights
            weights = model_ops.class_weights_from_labels([client.sequences[0].label])
        grad = model_ops.backward(
            probe, cache, client.sequences[0].label, weights, 0.0, flat
        )

        with pytest.warns(UserWarning):
            out = local_train(client, state, flat, cfg, np.random.default_rng(9))
        # (w - lr g) - w loses a few low bits against w itself, so allow an
        # absolute tolerance at machine-epsilon-of-w scale.
        np.testing.assert_allclose(out.delta, -0.05 * grad, rtol=1e-6, atol=1e-14)

    def test_large_mu_shrinks_delta(self):
        state = init(tiny_model_config(), 2)
        client = mk_client(0, 12, seed=10)
        flat = state.get_trainable()
        free = local_train(
            client, state, flat, fed_config(proximal_mu=0.0), np.random.default_rng(11)
        )
        tethered = local_train(
            client, state, flat, fed_config(proximal_mu=1e6, learning_rate=1e-7),
            np.random.default_rng(11),
        )
        assert np.linalg.norm(tethered.delta) < np.linalg.norm(free.delta)

    def test_base_state_not_mutated(self):
        state = init(tiny_model_config(), 3)
        before = state.get_trainable().copy()
        local_train(
            mk_client(0, 6), state, before.copy(), fed_config(), np.random.default_rng(0)
        )
        np.testing.assert_array_equal(state.get_trainable(), before)

    def test_accumulation_schedule_matches_reference(self):
        # n=10, batch 4: 3 micro-batches per epoch, 3 epochs = 9 micro-batches.
        # With 2 per step that is 5 steps: step 1 straddles the first epoch
        # boundary, and step 4 is a partial step of one micro-batch.
        cfg = fed_config(
            local_epochs=3, batch_size=4, grad_accum_steps=2, learning_rate=0.5,
            proximal_mu=0.1, warmup_ratio=0.4, weight_decay=0.05, max_grad_norm=0.05,
        )
        state = init(tiny_model_config(lora_dropout=0.3), 5)
        state.set_trainable(np.random.default_rng(12).normal(0, 0.2, size=state.n_trainable))
        client = mk_client(0, 10, seed=13)
        flat = state.get_trainable()
        out = local_train(client, state, flat, cfg, np.random.default_rng(14))

        ref = state.copy()
        vocab = ref.config.vocab_size
        seqs = [token_ids_from_keys(s.key_ids, vocab) for s in client.sequences]
        labels = np.array([s.label for s in client.sequences])
        weights = model_ops.class_weights_from_labels(labels)
        # Plain accumulate-then-step reference: 9 micro-batches, 5 steps.
        rng = np.random.default_rng(14)
        warmup_steps = 2  # round(0.4 * 5)
        g, count, steps, clipped = np.zeros_like(flat), 0, 0, 0
        for epoch in range(3):
            order = rng.permutation(10)
            for b in range(0, 10, 4):
                idx = order[b : b + 4]
                _, cache = forward(ref, [seqs[i] for i in idx], "train", rng)
                g += model_ops.backward(
                    ref, cache, labels[idx], weights, cfg.proximal_mu, flat
                ) / len(idx)
                count += 1
                if count < 2 and (epoch, b) != (2, 8):
                    continue
                g /= count
                norm = float(np.linalg.norm(g))
                if norm > cfg.max_grad_norm:
                    g *= cfg.max_grad_norm / norm
                    clipped += 1
                lr = cfg.learning_rate * min(1.0, (steps + 1) / warmup_steps)
                ref.trainable[...] -= lr * g
                ref.trainable[...] -= lr * cfg.weight_decay * ref.trainable
                g, count, steps = np.zeros_like(flat), 0, steps + 1

        assert steps == 5 and clipped > 0
        np.testing.assert_array_equal(out.delta, ref.trainable - flat)

    def test_empty_cohort_returns_no_updates(self):
        state = init(tiny_model_config(), 4)
        flat = state.get_trainable()
        assert local_train(Cohort(()), state, flat, fed_config(), []) == []

    def test_pre_clip_norm_reported(self):
        state = init(tiny_model_config(), 4)
        flat = state.get_trainable()
        out = local_train(mk_client(0, 6), state, flat, fed_config(), np.random.default_rng(0))
        assert out.pre_clip_norm == pytest.approx(float(np.linalg.norm(out.delta)))


class TestEpochPacking:
    """Each epoch packed once, against the windows taken in permutation order."""

    def test_micro_batches_equal_windows_in_permutation_order(self):
        # 11 windows, lengths 1 to max_sequence_length (8): batches of 4, 4
        # and a partial 3, over two epochs.
        mcfg = tiny_model_config()
        keys = [tuple(range(t)) for t in (1, 8, 3, 5, 8, 1, 2, 7, 4, 6, 3)]
        client = ClientDataset(0, [WindowSequence("n0", i, k, i % 3 == 0)
                                   for i, k in enumerate(keys)])
        data = LocalData.from_client(client, mcfg)
        assert data.windows.ids.dtype == np.int32
        cfg = fed_config(local_epochs=2, batch_size=4)
        tokens = [token_ids_from_keys(k, mcfg.vocab_size) for k in keys]
        labels = np.array([s.label for s in client.sequences])

        # A draw after every batch stands in for the engine's dropout draws,
        # so an epoch's permutation must come after the last batch's draws.
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = []
        for batch in federated._micro_batches(data, cfg, got_rng):
            got.append(batch)
            got_rng.random()
        want = []
        for _ in range(2):
            order = want_rng.permutation(len(keys))
            for a in range(0, len(keys), 4):
                idx = order[a:a + 4]
                want.append((model_ops.pack([tokens[j] for j in idx], mcfg), labels[idx]))
                want_rng.random()
        assert [len(batch) for batch, _ in got] == [4, 4, 3, 4, 4, 3]
        for (batch, batch_labels), (packed, want_labels) in zip(got, want, strict=True):
            assert batch.ids.dtype == np.int32
            np.testing.assert_array_equal(batch.ids, packed.ids)
            np.testing.assert_array_equal(batch.lengths, packed.lengths)
            np.testing.assert_array_equal(batch_labels, want_labels)
        assert got_rng.random() == want_rng.random()

    def test_empty_client_draws_as_before(self):
        data = LocalData.from_client(ClientDataset(0, []), tiny_model_config())
        got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
        assert list(federated._micro_batches(data, fed_config(local_epochs=2), got_rng)) == []
        for _ in range(2):
            want_rng.permutation(0)
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("length", [0, 9])
    def test_from_client_rejects_empty_or_overlong_window(self, length):
        client = ClientDataset(5, [WindowSequence("n0", 0, (1, 2), 0),
                                   WindowSequence("n0", 1, tuple(range(length)), 1)])
        with pytest.raises(ValueError, match="client 5"):
            LocalData.from_client(client, tiny_model_config())

    def test_step_norm_is_numpys_vector_norm(self):
        rng = np.random.default_rng(16)
        for n in (1, 2, 7, 57, 785, 4096):
            for scale in (1e-8, 1.0, 1e6):
                x = rng.normal(0.0, scale, size=n)
                assert math.sqrt(x.dot(x)) == np.linalg.norm(x)


class TestCohort:
    """A round's clients trained in lockstep against each client trained alone."""

    @pytest.mark.parametrize("eval_rows", [None, 1])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_cohort_matches_solo_runs(self, monkeypatch, n_layers, eval_rows):
        # Client 0 has 10 windows (9 micro-batches over 3 epochs, so 5 steps
        # of 2 with a partial last one and 2 warmup steps); client 2 has 5
        # and client 3 has 7 (6 micro-batches, 3 steps, 1 warmup step), so
        # they stop early; client 1 is empty. Class balances differ, dropout
        # is on, and weight decay, a binding max_grad_norm and the proximal
        # term act on every step.
        cfg = fed_config(
            local_epochs=3, batch_size=4, grad_accum_steps=2, learning_rate=0.5,
            proximal_mu=0.1, warmup_ratio=0.4, weight_decay=0.05, max_grad_norm=0.05,
        )
        state = init(tiny_model_config(n_layers=n_layers, lora_dropout=0.3), 6)
        state.set_trainable(np.random.default_rng(15).normal(0, 0.2, size=state.n_trainable))
        flat = state.get_trainable()
        clients = [mk_client(0, 10, seed=42), ClientDataset(1, []),
                   mk_client(2, 5, seed=41), mk_client(3, 7, seed=47)]
        solo = [local_train(c, state, flat, cfg, np.random.default_rng(50 + k))
                for k, c in enumerate(clients)]

        if eval_rows is not None:  # every micro-batch then gets its own call
            monkeypatch.setattr(model_ops, "EVAL_ROWS", eval_rows)
        calls = []
        engine = model_ops.forward

        def counting_forward(state, sequences, *args, **kwargs):
            calls.append(len(sequences))
            return engine(state, sequences, *args, **kwargs)

        monkeypatch.setattr(model_ops, "forward", counting_forward)
        cohort = Cohort(tuple(LocalData.from_client(c, state.config) for c in clients))
        rngs = [np.random.default_rng(50 + k) for k in range(4)]
        out = local_train(cohort, state, flat, cfg, rngs)

        # Micro-batch sizes per epoch: client 0 4, 4, 2; client 2 4, 1; client 3 4, 3.
        if eval_rows is None:  # micro-batch i of every client that has one, in one call
            assert calls == [4 + 4 + 4, 4 + 1 + 3, 2 + 4 + 4, 4 + 1 + 3, 4 + 4 + 4, 2 + 1 + 3,
                             4, 4, 2]
        else:
            assert len(calls) == 9 + 6 + 6
        assert [(d.client_id, d.n_samples) for d in out] == [(0, 10), (1, 0), (2, 5), (3, 7)]
        assert not out[1].delta.any() and out[1].pre_clip_norm == 0.0
        for got, want in zip(out, solo):
            assert np.linalg.norm(got.delta - want.delta) <= 1e-9 * np.linalg.norm(want.delta)
            assert got.pre_clip_norm == pytest.approx(want.pre_clip_norm, rel=1e-9, abs=0.0)


def build_trainer(fc, model_seed=0, n_per_client=6, sigma=None, clients=None):
    state = init(tiny_model_config(), model_seed)
    if clients is None:
        clients = [mk_client(k, n_per_client, seed=20 + k) for k in range(fc.k_clients)]
    test = mk_client(99, 10, seed=30)
    ledger = PrivacyLedger(
        target_epsilon=10.0,
        delta=1e-5,
        noise_multiplier=fc.noise_multiplier,
        total_rounds=fc.rounds,
    )
    trainer = FederatedTrainer(
        state,
        clients,
        [s.key_ids for s in test.sequences],
        [s.label for s in test.sequences],
        fc,
        ledger,
    )
    return trainer


class TestTrainer:
    def test_centralized_degeneracy(self):
        # sigma=0, q=1, K=1, E=1, clip loose: the federated trajectory equals
        # direct centralized mini-batch SGD step-for-step.
        n_rounds = 10
        fc = fed_config(
            k_clients=1, rounds=n_rounds, local_epochs=1, clip_bound=1e9,
            noise_multiplier=0.0, learning_rate=0.05,
        )
        import warnings as _w
        with _w.catch_warnings():
            _w.simplefilter("ignore")
            # The trainer keeps only the packed windows, so the reference
            # reads the client it was given.
            client = mk_client(0, 6, seed=20)
            trainer = build_trainer(fc, clients=[client])
            reference = init(tiny_model_config(), 0)
            vocab = reference.config.vocab_size
            seqs = [token_ids_from_keys(s.key_ids, vocab) for s in client.sequences]
            labels = [s.label for s in client.sequences]
            weights = model_ops.class_weights_from_labels(labels)
            trainer.run()

            # Direct trainer: same per-round rng stream, same batch schedule.
            n = len(seqs)
            bs = fc.batch_size
            for round_idx in range(n_rounds):
                rng = trainer._round_rng(2, round_idx, 0)
                anchor = reference.get_trainable()
                order = rng.permutation(n)
                for b in range((n + bs - 1) // bs):
                    idx = order[b * bs : (b + 1) * bs]
                    g = np.zeros(reference.n_trainable)
                    for i in idx:
                        _, cache = forward(reference, seqs[i], "train", rng)
                        g += model_ops.backward(
                            reference, cache, labels[i], weights,
                            fc.proximal_mu, anchor,
                        )
                    g /= len(idx)
                    w = reference.get_trainable()
                    reference.set_trainable(w - fc.learning_rate * g)

        diff = np.abs(
            trainer.state.get_trainable() - reference.get_trainable()
        ).max()
        assert diff < 1e-12

    def test_two_runs_identical(self):
        fc = fed_config(noise_multiplier=0.3, rounds=3)
        t1, t2 = build_trainer(fc), build_trainer(fc)
        with pytest.warns(UserWarning, match="exceeds target"):
            m1, m2 = t1.run(), t2.run()
        np.testing.assert_array_equal(
            t1.state.get_trainable(), t2.state.get_trainable()
        )
        assert [m.f1 for m in m1] == [m.f1 for m in m2]

    def test_metrics_rows_per_round(self):
        fc = fed_config(rounds=3, noise_multiplier=0.2)
        trainer = build_trainer(fc)
        with pytest.warns(UserWarning, match="exceeds target"):
            metrics = trainer.run()
        assert [m.round for m in metrics] == [0, 1, 2]
        assert all(m.participants >= 1 for m in metrics)

    def test_empty_rounds_are_noise_only_releases(self):
        # At q=0.01 over 2 clients nearly every round draws nobody. Each such
        # round still adds noise, is accounted and gets a metrics row.
        fc = fed_config(rounds=6, participation_rate=0.01, noise_multiplier=0.5)
        trainer = build_trainer(fc)
        before = trainer.state.get_trainable().copy()
        with pytest.warns(UserWarning, match="exceeds target"):
            metrics = trainer.run()
        assert [m.round for m in metrics] == list(range(6))
        assert trainer.ledger.rounds_completed == 6
        empty = [m for m in metrics if m.participants == 0]
        assert empty and all(m.mean_pre_clip_norm == 0.0 for m in empty)
        assert not np.array_equal(trainer.state.get_trainable(), before)

    def test_windows_tokenized_once_per_run(self, monkeypatch):
        calls = []
        convert = model_ops.token_ids_from_keys

        def counting_convert(*args):
            calls.append(1)
            return convert(*args)

        monkeypatch.setattr(model_ops, "token_ids_from_keys", counting_convert)
        trainer = build_trainer(fed_config(rounds=3, noise_multiplier=0.2))
        at_construction = len(calls)
        assert at_construction > 0
        with pytest.warns(UserWarning, match="exceeds target"):
            trainer.run()
        assert len(calls) == at_construction

    def test_ledger_updated_each_round(self):
        fc = fed_config(rounds=4, noise_multiplier=0.5)
        trainer = build_trainer(fc)
        with pytest.warns(UserWarning, match="exceeds target"):
            trainer.run()
        assert trainer.ledger.rounds_completed == 4
