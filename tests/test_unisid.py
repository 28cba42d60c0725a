"""Tests for the unified model forward pass and SID assignment."""

import tracemalloc

import numpy as np
import pytest

from sidforge import numkit
from sidforge.errors import InputError, NumericError, ShapeError
from sidforge.numkit import MlpParams, mlp_init
from sidforge.unisid import (SidTable, UniSidConfig, UniSidModel,
                             assign_catalog, assign_sid, embed_batch,
                             forward_batch, init_model, token_stats,
                             tokens_onehot)
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


@pytest.mark.parametrize("tokens, K", [
    (np.array([0, 1]), 4),
    (np.zeros((2, 2, 2), dtype=np.int64), 4),
    (np.zeros((0, 2), dtype=np.int64), 4),
    (np.zeros((2, 0), dtype=np.int64), 4),
    (np.array([[0.0, 1.0]]), 4),
    (np.array([[False, True]]), 4),
    (np.array([[0, 1]], dtype=object), 4),
    # one short SID once counted as a distinct level-1 prefix and no more
    ([(1, 2), (1,)], 4),
    (np.array([[0, 4]]), 4),
    (np.array([[-1, 0]]), 4),
    (np.array([[0, 0]], dtype=np.uint64) + 2 ** 63, 4),
    (np.array([[0, 1]]), 0),
    (np.array([[0, 1]]), True),
    (np.array([[0, 1]]), 4.0),
], ids=["1-D", "3-D", "no_rows", "no_levels", "float", "bool", "object",
        "ragged", "token_is_K", "token_negative", "token_2**63", "K_zero",
        "K_true", "K_float"])
def test_sid_table_rejects_bad_input(tokens, K):
    with pytest.raises(InputError, match=r"^a SID table takes an integer K "
                                         r">= 1 and an \(n, L\) integer "
                                         r"array, n, L >= 1$|^SID tokens "
                                         r"must be in \[0, K = 4\)$"):
        SidTable(tokens, K)


def test_sid_table_is_a_read_only_copy():
    for dtype in (np.int64, np.int32, np.uint8):
        source = np.array([[0, 1, 2], [3, 2, 1]], dtype=dtype)
        table = SidTable(source, 4)
        assert table.tokens.dtype == np.int64
        assert (table.L, table.K) == (3, 4)
        with pytest.raises(ValueError):
            table.tokens[0, 0] = 3
        source[0, 0] = 3
        assert table.tokens.tolist() == [[0, 1, 2], [3, 2, 1]]


def test_sid_table_equality_is_a_bool():
    table = SidTable([[0, 1], [2, 3]], 4)
    assert (table == SidTable(np.array([[0, 1], [2, 3]], np.uint8), 4)) is True
    for other in (SidTable([[0, 1], [2, 2]], 4), SidTable([[0, 1], [2, 3]], 5),
                  SidTable([[0, 1]], 4), SidTable([[0], [2]], 4)):
        assert (table != other) is True and (table == other) is False
    assert table != [[0, 1], [2, 3]]


def test_collision_stats_oracle():
    stats = token_stats(np.array([(0, 0), (0, 0), (0, 1)]))
    assert np.isclose(stats["collision_rate"], 2.0 / 3.0)
    assert stats["distinct_prefixes"] == [1, 2]
    assert token_stats(np.array([[5, 1]])) == {"collision_rate": 0.0,
                                               "distinct_prefixes": [1, 1]}


def test_collision_stats_all_unique():
    stats = token_stats(np.array([(i, 0, 0) for i in range(5)]))
    assert stats["collision_rate"] == 0.0
    assert stats["distinct_prefixes"] == [5, 5, 5]


def _random_tokens(seed):
    """(n, L) token arrays of depth 1-4 whose rows collide often, never,
    or all alike."""
    r = np.random.default_rng(seed)
    for L in (1, 2, 3, 4):
        n = int(r.integers(1, 40))
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
                       tokens - tokens.max() - 1]
    # such a key's edge, (max + 1) ** 3 == 2 ** 63, and one past it, with
    # duplicate rows
    r = np.random.default_rng(0)
    for top in (2 ** 21 - 1, 2 ** 21):
        tokens = r.integers(top - 2, top + 1, size=(60, 3))
        tokens[0] = top
        tokens[1:4] = tokens[4]
        tables.append(tokens)
    for tokens in tables:
        got = token_stats(tokens)
        assert got == collision_stats_oracle(tokens)
        assert type(got["collision_rate"]) is float
        assert all(type(d) is int for d in got["distinct_prefixes"])
    assert all(collision_stats_oracle(t)["collision_rate"] > 0
               for t in tables[-2:])


def test_assign_catalog_runs_encoder_and_sid_head_only(small_catalog,
                                                       monkeypatch):
    # the same tokens as the full forward pass, from two MLP calls:
    # the embedding head's output would be dropped
    model = init_model(small_catalog.spec.feature_dim, CFG, seed=4)
    want = SidTable(forward_batch(model, small_catalog.features_matrix(),
                                  caches=False).tokens, CFG.K)
    calls = []
    apply = numkit.mlp_apply

    def counted(*a, **kw):
        calls.append(a[0])
        return apply(*a, **kw)

    monkeypatch.setattr(numkit, "mlp_apply", counted)
    table, stats = assign_catalog(model, small_catalog)
    assert table == want
    assert calls == [model.encoder, model.sid_head]
    assert stats == collision_stats_oracle(want.tokens)


def test_assign_catalog(small_catalog):
    model = init_model(small_catalog.spec.feature_dim, CFG, seed=9)
    table, stats = assign_catalog(model, small_catalog)
    assert type(table) is SidTable and table.K == CFG.K
    assert table.tokens.shape == (len(small_catalog.items), CFG.L)
    # stats agree with an independent recount
    from collections import Counter
    counts = Counter(map(tuple, table.tokens.tolist()))
    colliding = sum(c for c in counts.values() if c > 1)
    assert np.isclose(stats["collision_rate"],
                      colliding / len(small_catalog.items))


def test_assign_catalog_dim_mismatch(small_catalog):
    model = init_model(small_catalog.spec.feature_dim + 1, CFG, seed=0)
    with pytest.raises(ShapeError):
        assign_catalog(model, small_catalog)
