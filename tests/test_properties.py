"""Property-based checks over the pure helpers."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flog.accountant import epsilon_for
from flog.drain import WILDCARD, seq_similarity
from flog.federated import clip_update
from flog.metrics import confusion, prf1_accuracy, roc_auc
from flog.model import N_RESERVED, UNK_ID, token_ids_from_keys

tokens = st.sampled_from(["a", "b", "c", WILDCARD])


@given(st.lists(tokens, min_size=1, max_size=12))
def test_similarity_reflexive(toks):
    assert seq_similarity(toks, toks) == 1.0


@given(st.lists(st.tuples(tokens, tokens), min_size=1, max_size=12))
def test_similarity_bounded(pairs):
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    assert 0.0 <= seq_similarity(a, b) <= 1.0


@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=30),
    st.floats(0.1, 10.0),
)
def test_clip_is_projection(values, bound):
    delta = np.array(values)
    clipped = clip_update(delta, bound)
    assert np.linalg.norm(clipped) <= bound + 1e-9
    np.testing.assert_allclose(clip_update(clipped, bound), clipped, rtol=1e-12)


@given(st.lists(st.integers(-5, 40), min_size=1, max_size=20))
def test_token_ids_always_valid(keys):
    vocab = 20
    ids = token_ids_from_keys(keys, vocab)
    assert ((ids >= N_RESERVED) | (ids == UNK_ID)).all()
    assert (ids < vocab).all()


@given(
    st.lists(
        st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=2, max_size=60
    )
)
def test_confusion_partitions_and_f1_identity(rows):
    scores = [r[0] for r in rows]
    labels = [r[1] for r in rows]
    tp, fp, tn, fn = confusion(scores, labels)
    assert tp + fp + tn + fn == len(rows)
    p, r, f1, acc, _ = prf1_accuracy((tp, fp, tn, fn))
    assert 0.0 <= acc <= 1.0
    if p + r > 0:
        assert abs(f1 - 2 * p * r / (p + r)) < 1e-12


@given(
    st.lists(st.floats(0.01, 0.99), min_size=4, max_size=40),
    st.floats(0.5, 5.0),
)
@settings(max_examples=30)
def test_auc_monotone_transform_invariant(scores, gain):
    labels = [i % 2 for i in range(len(scores))]
    transformed = [s**gain for s in scores]  # monotone on (0, 1)
    # In floating point it can still round two distinct scores to one value,
    # a tie that changes the AUC (see test_metrics); skip such draws.
    assume(len(set(transformed)) == len(set(scores)))
    a = roc_auc(scores, labels)
    b = roc_auc(transformed, labels)
    assert abs(a - b) < 1e-9


@given(st.floats(0.5, 4.0), st.integers(1, 50))
@settings(max_examples=30)
def test_epsilon_monotone_in_delta(sigma, rounds):
    loose, _ = epsilon_for(sigma, rounds, 1e-3)
    tight, _ = epsilon_for(sigma, rounds, 1e-7)
    assert loose <= tight + 1e-12
