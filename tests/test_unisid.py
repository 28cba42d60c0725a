"""Tests for the unified model forward pass and SID assignment."""

import numpy as np
import pytest

from sidforge.errors import NumericError, ShapeError
from sidforge.numkit import mlp_init
from sidforge.unisid import (UniSidConfig, UniSidModel, assign_catalog,
                             assign_sid, collision_stats, embed_batch,
                             forward_batch, init_model, tokens_onehot)

CFG = UniSidConfig(L=3, K=16, d_h=16, d_e=8)


def test_assign_sid_argmax_and_ties():
    logits = np.zeros((2, 4))
    logits[0, 2] = 1.0
    # row 1 is a four-way tie: lowest index wins
    assert assign_sid(logits).tolist() == [2, 0]


def test_assign_sid_rejects_nan():
    with pytest.raises(NumericError):
        assign_sid(np.array([[np.nan, 0.0]]))


def test_tokens_onehot_matches_loop(rng):
    tokens = rng.integers(0, 5, size=(7, 3))
    got = tokens_onehot(tokens, 5)
    want = np.zeros((7, 15))
    for i in range(7):
        for lvl in range(3):
            want[i, lvl * 5 + tokens[i, lvl]] = 1.0
    np.testing.assert_array_equal(got, want)
    assert got.sum() == 21


def test_init_model_shapes_and_determinism():
    m1 = init_model(24, CFG, seed=4)
    m2 = init_model(24, CFG, seed=4)
    assert m1.encoder.in_dim == 24 and m1.encoder.out_dim == CFG.d_h
    assert m1.sid_head.out_dim == CFG.L * CFG.K
    assert m1.emb_head.in_dim == CFG.d_h + CFG.L * CFG.K
    assert m1.emb_head.out_dim == CFG.d_e
    for a, b in zip(m1.encoder.flat(), m2.encoder.flat()):
        np.testing.assert_array_equal(a, b)


def test_model_shape_validation(rng):
    good = init_model(24, CFG, seed=0)
    with pytest.raises(ShapeError):
        UniSidModel(encoder=good.encoder,
                    sid_head=mlp_init([CFG.d_h, 7], rng),
                    emb_head=good.emb_head, config=CFG)
    with pytest.raises(ShapeError):
        UniSidModel(encoder=good.encoder, sid_head=good.sid_head,
                    emb_head=mlp_init([5, CFG.d_e], rng), config=CFG)


def test_forward_batch_consistency(small_catalog):
    model = init_model(small_catalog.spec.feature_dim, CFG, seed=2)
    x = small_catalog.features_matrix(list(range(10)))
    fp = forward_batch(model, x)
    assert fp.logits.shape == (10, CFG.L, CFG.K)
    np.testing.assert_array_equal(fp.tokens, assign_sid(fp.logits))
    np.testing.assert_array_equal(fp.embedding, embed_batch(model, x))


def test_embedding_depends_on_tokens(small_catalog):
    # same hidden state but different hard tokens must change the
    # embedding: the head really conditions on the one-hots
    model = init_model(small_catalog.spec.feature_dim, CFG, seed=2)
    x = small_catalog.features_matrix([0])
    fp = forward_batch(model, x)
    alt = fp.tokens.copy()
    alt[0, 0] = (alt[0, 0] + 1) % CFG.K
    from sidforge.numkit import mlp_apply
    from sidforge.unisid import tokens_onehot as oh
    e_alt, _ = mlp_apply(model.emb_head,
                         np.concatenate([fp.hidden, oh(alt, CFG.K)], axis=1))
    assert not np.allclose(e_alt, fp.embedding)


def test_collision_stats_oracle():
    table = {1: (0, 0), 2: (0, 0), 3: (0, 1)}
    stats = collision_stats(table)
    assert np.isclose(stats["collision_rate"], 2.0 / 3.0)
    assert stats["distinct_prefixes"] == [1, 2]
    empty = collision_stats({})
    assert empty["collision_rate"] == 0.0


def test_collision_stats_all_unique():
    table = {i: (i, 0, 0) for i in range(5)}
    stats = collision_stats(table)
    assert stats["collision_rate"] == 0.0
    assert stats["distinct_prefixes"] == [5, 5, 5]


def test_assign_catalog(small_catalog):
    model = init_model(small_catalog.spec.feature_dim, CFG, seed=9)
    table, stats = assign_catalog(model, small_catalog)
    assert sorted(table) == list(small_catalog.items)
    assert all(len(s) == CFG.L for s in table.values())
    assert all(0 <= t < CFG.K for s in table.values() for t in s)
    # stats agree with an independent recount
    from collections import Counter
    counts = Counter(table.values())
    colliding = sum(c for c in counts.values() if c > 1)
    assert np.isclose(stats["collision_rate"], colliding / len(table))


def test_assign_catalog_dim_mismatch(small_catalog):
    model = init_model(small_catalog.spec.feature_dim + 1, CFG, seed=0)
    with pytest.raises(ShapeError):
        assign_catalog(model, small_catalog)
