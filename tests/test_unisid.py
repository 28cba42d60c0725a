"""Tests for the unified model forward pass and SID assignment."""

import tracemalloc

import numpy as np
import pytest

from sidforge import numkit
from sidforge.errors import InputError, NumericError, ShapeError
from sidforge.numkit import MlpParams, mlp_init
from sidforge.unisid import (UniSidConfig, UniSidModel, assign_catalog,
                             assign_sid, collision_stats, embed_batch,
                             forward_batch, init_model, token_stats,
                             token_table, tokens_onehot)
from testkit import collision_stats_oracle

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


def _integer_model(feature_dim, c, rng):
    """Integer weights and biases: with integer inputs they put exact
    zeros among the pre-activations, where a ReLU's sign matters."""
    def mlp(dims):
        return MlpParams([rng.integers(-2, 3, size=(a, b)).astype(float)
                          for a, b in zip(dims, dims[1:])],
                         [rng.integers(-1, 2, size=b).astype(float)
                          for b in dims[1:]])
    return UniSidModel(encoder=mlp([feature_dim, c.d_h, c.d_h]),
                       sid_head=mlp([c.d_h, c.L * c.K]),
                       emb_head=mlp([c.d_h + c.L * c.K, c.d_e]), config=c)


@pytest.mark.parametrize("n, feature_dim, config, integer", [
    (1, 6, UniSidConfig(L=2, K=3, d_h=4, d_e=2), False),
    (10, 24, CFG, False),
    (300, 40, UniSidConfig(L=3, K=16, d_h=64, d_e=32), False),
    (37, 12, UniSidConfig(L=3, K=5, d_h=9, d_e=7), True),
    (64, 8, UniSidConfig(L=1, K=2, d_h=3, d_e=1), True)])
def test_cache_free_forward_matches_cached(rng, n, feature_dim, config,
                                           integer):
    if integer:
        model = _integer_model(feature_dim, config, rng)
        x = rng.integers(-2, 3, size=(n, feature_dim)).astype(float)
        enc = model.encoder
        assert np.any(x @ enc.weights[0] + enc.biases[0] == 0.0)
    else:
        model = init_model(feature_dim, config, seed=5)
        x = rng.normal(size=(n, feature_dim))
    full = forward_batch(model, x)
    lean = forward_batch(model, x, caches=False)
    assert lean.tokens.tobytes() == full.tokens.tobytes()
    assert lean.embedding.tobytes() == full.embedding.tobytes()
    assert embed_batch(model, x).tobytes() == full.embedding.tobytes()
    assert all(v is None for v in (lean.hidden, lean.logits, lean.enc_cache,
                                   lean.sid_cache, lean.emb_cache))
    assert all(v is not None for v in (full.hidden, full.logits,
                                       full.enc_cache, full.sid_cache,
                                       full.emb_cache))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_catalog_inference_holds_no_backprop_state(rng):
    # a bound on memory, not on time: the cache-free pass never holds the
    # training caches, so its traced peak stays below the cached pass's
    model = init_model(40, UniSidConfig(L=3, K=16, d_h=64, d_e=32), seed=0)
    x = rng.normal(size=(2048, 40))
    cached = _traced_peak(lambda: forward_batch(model, x))
    lean = _traced_peak(lambda: embed_batch(model, x))
    assert lean < 0.85 * cached


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


def test_collision_stats_rejects_ragged_sids():
    # one short SID once counted as a distinct level-1 prefix and no more
    with pytest.raises(InputError, match="differ in length"):
        collision_stats({0: (1, 2), 1: (1,)})


def _random_tokens(seed):
    """(n, L) token arrays of depth 1-4 whose rows collide often, never,
    or all alike, and an empty one per depth."""
    r = np.random.default_rng(seed)
    for L in (1, 2, 3, 4):
        n = int(r.integers(1, 40))
        yield np.zeros((0, L), dtype=np.int64)
        yield r.integers(int(r.integers(1, 4)), size=(n, L))
        yield np.repeat(r.integers(5, size=(1, L)), n, axis=0)
        yield np.column_stack(
            [r.permutation(n)] + [r.integers(3, size=n)] * (L - 1))


def test_collision_stats_matches_counter():
    # shifting or scaling every token keeps the rows' order and ties: wide
    # tokens, which would overflow a sort key packing a row into L
    # base-(max + 1) digits of one int64 from L = 2 on, and negative ones
    tables = []
    for seed in range(20):
        for tokens in _random_tokens(seed):
            tables += [tokens, (tokens + 1) * 2 ** 40,
                       tokens - tokens.max(initial=0) - 1]
    # such a key's edge, (max + 1) ** 3 == 2 ** 63, and one past it, with
    # duplicate rows
    r = np.random.default_rng(0)
    for top in (2 ** 21 - 1, 2 ** 21):
        tokens = r.integers(top - 2, top + 1, size=(60, 3))
        tokens[0] = top
        tokens[1:4] = tokens[4]
        tables.append(tokens)
    for tokens in tables:
        table = token_table(tokens)
        want = collision_stats_oracle(table)
        got = collision_stats(table)
        assert got == want == token_stats(tokens)
        assert type(got["collision_rate"]) is float
        assert all(type(d) is int for d in got["distinct_prefixes"])
    assert all(collision_stats_oracle(token_table(t))["collision_rate"] > 0
               for t in tables[-2:])


def test_assign_catalog_runs_encoder_and_sid_head_only(small_catalog,
                                                       monkeypatch):
    # the same tokens as the full forward pass, from two MLP calls:
    # the embedding head's output would be dropped
    model = init_model(small_catalog.spec.feature_dim, CFG, seed=4)
    want = token_table(forward_batch(model, small_catalog.features_matrix(),
                                     caches=False).tokens)
    calls = []
    apply = numkit.mlp_apply

    def counted(*a, **kw):
        calls.append(a[0])
        return apply(*a, **kw)

    monkeypatch.setattr(numkit, "mlp_apply", counted)
    table, stats = assign_catalog(model, small_catalog)
    assert table == want
    assert calls == [model.encoder, model.sid_head]
    assert stats == collision_stats_oracle(want)


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
