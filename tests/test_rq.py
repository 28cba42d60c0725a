"""Tests for residual quantization: RQ-KMeans and the RQ-VAE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidforge import numkit
from sidforge.errors import ConfigurationError, NumericError, ShapeError
from sidforge.rq import (Codebook, RqVaeConfig, RqVaeModel, _ema_update,
                         quantize, rq_assign_batch, rq_kmeans_fit, rq_vae_fit,
                         rq_vae_loss_grads)
from testkit import finite_diff_check, near_float32_ties


def _oracle_assign(levels, v):
    """Naive per-level nearest-codeword loop: strict improvement only, so
    ties keep the lowest index."""
    tokens, r = [], v.astype(np.float64).copy()
    for lvl in range(levels.shape[0]):
        best, best_d = 0, np.inf
        for k in range(levels.shape[1]):
            d = np.sum((r - levels[lvl, k]) ** 2)
            if d < best_d:
                best, best_d = k, d
        tokens.append(best)
        r = r - levels[lvl, best]
    return np.array(tokens)


def _oracle_ema_update(codebook, z, tokens, counts, sums, decay):
    """The per-code loop that `_ema_update` replaced."""
    r = z.copy()
    for lvl in range(codebook.L):
        for k in range(codebook.K):
            mask = tokens[:, lvl] == k
            counts[lvl, k] = decay * counts[lvl, k] + (1 - decay) * mask.sum()
            sums[lvl, k] = (decay * sums[lvl, k]
                            + (1 - decay) * r[mask].sum(axis=0))
            if counts[lvl, k] > 1e-8:
                codebook.levels[lvl, k] = sums[lvl, k] / counts[lvl, k]
        r = r - codebook.levels[lvl][tokens[:, lvl]]


def _oracle_ema_scatter(codebook, z, tokens, counts, sums, decay):
    """The `np.add.at` scatter that `_ema_update` replaced."""
    r = z.copy()
    for lvl in range(codebook.L):
        tok = tokens[:, lvl]
        batch_sums = np.zeros((codebook.K, codebook.dim))
        np.add.at(batch_sums, tok, r)
        counts[lvl] = (decay * counts[lvl]
                       + (1 - decay) * np.bincount(tok, minlength=codebook.K))
        sums[lvl] = decay * sums[lvl] + (1 - decay) * batch_sums
        live = counts[lvl] > 1e-8
        codebook.levels[lvl, live] = sums[lvl, live] / counts[lvl, live, None]
        r = r - codebook.levels[lvl][tok]


def test_codebook_validation():
    with pytest.raises(ShapeError):
        Codebook(levels=np.zeros((2, 3)))
    with pytest.raises(NumericError):
        Codebook(levels=np.full((1, 2, 2), np.nan))
    cb = Codebook(levels=np.zeros((2, 5, 3)))
    assert (cb.L, cb.K, cb.dim) == (2, 5, 3)


def test_rq_kmeans_levels_reduce_residual(rng):
    x = rng.normal(size=(200, 6))
    cb = rq_kmeans_fit(x, L=3, K=8, seed=0)
    assert cb.levels.shape == (3, 8, 6)
    # mean residual norm after each extra level must not grow
    errs = []
    r = x.copy()
    for lvl in range(3):
        tok = rq_assign_batch(Codebook(levels=cb.levels[:lvl + 1]), x)
        q = sum(cb.levels[j][tok[:, j]] for j in range(lvl + 1))
        errs.append(float(np.mean(np.linalg.norm(x - q, axis=1))))
    assert errs[0] >= errs[1] >= errs[2]


def test_rq_kmeans_k_too_large_names_level():
    with pytest.raises(ConfigurationError, match="level 1"):
        rq_kmeans_fit(np.zeros((4, 2)), L=2, K=8, seed=0)


def test_rq_assign_matches_oracle(rng):
    levels = rng.normal(size=(3, 7, 5))
    x = rng.normal(size=(50, 5))
    tokens = rq_assign_batch(Codebook(levels=levels), x)
    for i in range(50):
        np.testing.assert_array_equal(tokens[i], _oracle_assign(levels, x[i]))


def test_rq_assign_tie_lowest_index():
    levels = np.zeros((1, 3, 2))
    levels[0, 1] = [1.0, 0.0]
    levels[0, 2] = [1.0, 0.0]  # duplicate of index 1
    tokens = rq_assign_batch(Codebook(levels=levels), np.array([[1.0, 0.0]]))
    assert tokens[0, 0] == 1


def test_rq_assign_shape_error():
    cb = Codebook(levels=np.zeros((1, 2, 3)))
    with pytest.raises(ShapeError):
        rq_assign_batch(cb, np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        rq_assign_batch(cb, np.zeros(3))


def test_rq_assign_batch_matches_single(rng):
    # a row's tokens do not depend on the other rows of the batch
    cb = Codebook(levels=rng.normal(size=(2, 4, 3)))
    x = rng.normal(size=(20, 3))
    batch = rq_assign_batch(cb, x)
    for i in range(20):
        np.testing.assert_array_equal(batch[i],
                                      rq_assign_batch(cb, x[i:i + 1])[0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
       K=st.integers(1, 9), offset=st.sampled_from([0.0, 1.0, 1e3]))
def test_rq_assign_matches_bruteforce_with_ties(seed, dim, K, offset):
    # small-integer grids make exact distance ties common: duplicated
    # codewords, points equidistant from several codewords, and points
    # that repeat; the offset adds cancellation to the GEMM screen
    r = np.random.default_rng(seed)
    levels = r.integers(-2, 3, size=(2, K, dim)).astype(np.float64)
    dup = r.integers(0, K, size=K)
    levels[1] = levels[1, dup]  # level 2 repeats codewords
    levels[0] += offset
    x = r.integers(-3, 4, size=(40, dim)).astype(np.float64) + offset
    x[20:] = x[r.integers(0, 20, size=20)]
    x[::7] = levels[0, r.integers(0, K, size=6)]
    tokens = rq_assign_batch(Codebook(levels=levels), x)
    for i in range(x.shape[0]):
        np.testing.assert_array_equal(tokens[i], _oracle_assign(levels, x[i]))


def test_quantize_sums_codewords(rng):
    cb = Codebook(levels=rng.normal(size=(2, 4, 3)))
    x = rng.normal(size=(10, 3))
    q, tokens = quantize(cb, x)
    for i in range(10):
        want = cb.levels[0][tokens[i, 0]] + cb.levels[1][tokens[i, 1]]
        np.testing.assert_allclose(q[i], want)
        r = x[i] - cb.levels[0][tokens[i, 0]] - cb.levels[1][tokens[i, 1]]
        assert np.isclose(np.linalg.norm(x[i] - q[i]), np.linalg.norm(r))


def test_rqvae_config_validation():
    for bad in (RqVaeConfig(beta=-1.0), RqVaeConfig(ema_decay=0.0),
                RqVaeConfig(ema_decay=1.0), RqVaeConfig(epochs=-1),
                RqVaeConfig(epochs=1.5), RqVaeConfig(L=0), RqVaeConfig(K=0),
                RqVaeConfig(K=2.5), RqVaeConfig(d=0), RqVaeConfig(hidden=0),
                RqVaeConfig(batch_size=0), RqVaeConfig(batch_size="64"),
                RqVaeConfig(seed=-1), RqVaeConfig(lr=0.0),
                RqVaeConfig(lr=-1e-3), RqVaeConfig(lr=float("nan")),
                RqVaeConfig(lr=float("inf")), RqVaeConfig(lr="1e-3"),
                RqVaeConfig(lr=True), RqVaeConfig(beta="0.25"),
                RqVaeConfig(beta=float("nan")), RqVaeConfig(beta=None),
                RqVaeConfig(ema_decay="0.9"), RqVaeConfig(ema_decay=True)):
        with pytest.raises(ConfigurationError):
            bad.validate()
    RqVaeConfig(L=np.int64(1), K=1, d=1, hidden=1, batch_size=1,
                epochs=0).validate()
    RqVaeConfig(lr=1, beta=0, ema_decay=np.float32(0.5)).validate()


@pytest.mark.parametrize("args", [
    {"L": 0}, {"L": 1.0}, {"K": 0}, {"seed": -1}, {"iterations": -1}])
def test_rq_kmeans_rejects_bad_arguments(args):
    with pytest.raises(ConfigurationError):
        rq_kmeans_fit(np.zeros((4, 2)), **{"L": 2, "K": 2, "seed": 0, **args})


def _tiny_vae(rng, n=40, feat=6, d=4, K=3, L=2):
    x = rng.normal(size=(n, feat))
    r = np.random.default_rng(0)
    encoder = numkit.mlp_init([feat, 8, d], r)
    decoder = numkit.mlp_init([d, 8, feat], r)
    codebook = Codebook(levels=r.normal(size=(L, K, d)))
    return x, RqVaeModel(encoder=encoder, decoder=decoder,
                         codebook=codebook, beta=0.25)


def test_rqvae_loss_value_oracle(rng):
    x, model = _tiny_vae(rng)
    loss, _, _, z, tokens = rq_vae_loss_grads(model, x)
    q, tok2 = quantize(model.codebook, z)
    np.testing.assert_array_equal(tokens, tok2)
    xhat, _ = numkit.mlp_apply(model.decoder, q)
    recon = np.mean(np.sum((x - xhat) ** 2, axis=1))
    commit, r = 0.0, z.copy()
    for lvl in range(model.codebook.L):
        r = r - model.codebook.levels[lvl][tokens[:, lvl]]
        commit += np.mean(np.sum(r ** 2, axis=1))
    assert np.isclose(loss, recon + model.beta * commit)


def test_rqvae_straight_through_gradient_finite_difference(rng):
    # the straight-through estimator is the exact gradient of a frozen
    # surrogate: quantization offsets and token assignments held constant
    x, model = _tiny_vae(rng, n=12)
    _, enc_g, dec_g, z0, tokens0 = rq_vae_loss_grads(model, x)
    delta = quantize(model.codebook, z0)[0] - z0
    cums = np.cumsum(
        np.stack([model.codebook.levels[l][tokens0[:, l]]
                  for l in range(model.codebook.L)]), axis=0)
    n = x.shape[0]

    def surrogate(params):
        n_enc = len(model.encoder.flat())
        model.encoder.set_flat(params[:n_enc])
        model.decoder.set_flat(params[n_enc:])
        z, _ = numkit.mlp_apply(model.encoder, x)
        xhat, _ = numkit.mlp_apply(model.decoder, z + delta)
        loss = np.mean(np.sum((x - xhat) ** 2, axis=1))
        for lvl in range(model.codebook.L):
            loss += model.beta * np.mean(
                np.sum((z - cums[lvl]) ** 2, axis=1))
        _, eg, dg, _, _ = rq_vae_loss_grads(model, x)
        return float(loss), eg + dg

    params = model.encoder.flat() + model.decoder.flat()
    report = finite_diff_check(surrogate, params, h=1e-5,
                               tolerance=1e-5,
                               max_coords_per_param=10, rng=rng)
    assert report.passed, report


def test_ema_update_moves_codeword_toward_points():
    cb = Codebook(levels=np.zeros((1, 2, 2)))
    cb.levels[0, 1] = [10.0, 10.0]
    z = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    tokens = np.zeros((4, 1), dtype=np.int64)
    counts = np.ones((1, 2))
    sums = cb.levels.copy()
    before = cb.levels[0, 0].copy()
    _ema_update(cb, z, tokens, counts, sums, decay=0.5)
    # codeword 0 moves toward the mean of its assigned points (1, 1)
    assert np.all(cb.levels[0, 0] > before)
    assert np.all(cb.levels[0, 0] < 1.0)
    # untouched codeword 1 stays put (count decays but sum/count is fixed)
    np.testing.assert_allclose(cb.levels[0, 1], [10.0, 10.0])


def test_ema_update_matches_loop_oracle():
    for seed in range(30):
        r = np.random.default_rng(seed)
        L, K = int(r.integers(1, 4)), int(r.integers(1, 12))
        d, n = int(r.integers(2, 9)), int(r.integers(1, 60))
        levels = r.normal(size=(L, K, d))
        z = r.normal(size=(n, d))
        # only the lower half of the codes is used; one count is below 1e-8
        tokens = r.integers(0, max(1, K // 2), size=(n, L))
        counts = r.uniform(0.0, 2.0, size=(L, K))
        counts[0, -1] = 1e-12
        sums = r.normal(size=(L, K, d))
        cb, cb_want = Codebook(levels=levels.copy()), Codebook(levels=levels)
        counts_want, sums_want = counts.copy(), sums.copy()
        for _ in range(3):
            _ema_update(cb, z, tokens, counts, sums, decay=0.9)
            _oracle_ema_update(cb_want, z, tokens, counts_want, sums_want,
                               decay=0.9)
        assert np.array_equal(cb.levels, cb_want.levels), seed
        assert np.array_equal(counts, counts_want), seed
        assert np.array_equal(sums, sums_want), seed


@pytest.mark.parametrize("d", [1, 2, 5])
def test_ema_update_matches_scatter_oracle(d):
    # bit for bit, signs included, with -0.0 inputs and magnitudes from
    # 1e-8 to 1e3
    for seed in range(10):
        r = np.random.default_rng(seed)
        L, K, n = int(r.integers(1, 4)), int(r.integers(1, 9)), 64
        levels = r.normal(size=(L, K, d))
        z = r.normal(size=(n, d)) * 10.0 ** r.integers(-8, 4, size=(n, d))
        z[r.random(size=(n, d)) < 0.1] = -0.0
        # 64 rows over at most 7 codes; the last code is never used
        tokens = r.integers(0, max(1, K - 1), size=(n, L))
        counts = r.uniform(0.0, 2.0, size=(L, K))
        sums = r.normal(size=(L, K, d))
        cb, cb_want = Codebook(levels=levels.copy()), Codebook(levels=levels)
        counts_want, sums_want = counts.copy(), sums.copy()
        for _ in range(3):
            _ema_update(cb, z, tokens, counts, sums, decay=0.99)
            _oracle_ema_scatter(cb_want, z, tokens, counts_want, sums_want,
                                decay=0.99)
        for got, want in ((cb.levels, cb_want.levels), (counts, counts_want),
                          (sums, sums_want)):
            assert np.array_equal(got, want), seed
            assert np.array_equal(np.signbit(got), np.signbit(want)), seed


def test_rqvae_fit_deterministic_and_decreasing(rng):
    x = rng.normal(size=(96, 6))
    cfg = RqVaeConfig(L=2, K=4, d=4, epochs=8, batch_size=32, seed=5,
                      hidden=8)
    m1, l1 = rq_vae_fit(x, cfg)
    m2, l2 = rq_vae_fit(x, cfg)
    assert l1 == l2
    for a, b in zip(m1.encoder.flat() + m1.decoder.flat(),
                    m2.encoder.flat() + m2.decoder.flat()):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(m1.codebook.levels, m2.codebook.levels)
    steps = len(l1) // cfg.epochs
    assert np.mean(l1[-steps:]) < np.mean(l1[:steps])


def test_rqvae_fit_zero_epochs_still_seeds_codebook(rng):
    x = rng.normal(size=(40, 6))
    model, losses = rq_vae_fit(x, RqVaeConfig(L=2, K=4, d=4, epochs=0,
                                              hidden=8))
    assert losses == []
    assert model.codebook.levels.shape == (2, 4, 4)
    assert np.all(np.isfinite(model.codebook.levels))


# --- the float32 screen -----------------------------------------------------

def _broadcast_assign(levels, x):
    """Greedy per-level argmin of the broadcast squared distances."""
    r, tokens = x.copy(), []
    for words in levels:
        t = np.argmin(np.sum((r[:, None, :] - words[None, :, :]) ** 2,
                             axis=2), axis=1)
        tokens.append(t)
        r = r - words[t]
    return np.stack(tokens, axis=1)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
       dim=st.integers(1, 8), K=st.integers(1, 10),
       scale=st.sampled_from([1e-300, 1e-150, 1e-40, 1.0, 1e40, 1e150,
                              1e300]),
       offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]))
def test_rq_assign_matches_broadcast_on_float32_near_ties(seed, n, dim, K,
                                                          scale, offset):
    # half the rows at a float32 near tie of two level-1 codewords, half
    # at one of two level-2 codewords (level 1 clear), with repeated
    # codewords, far from the origin and at any magnitude
    r = np.random.default_rng(seed)
    levels = np.stack([10.0 * r.normal(size=(K, dim)),
                       r.normal(size=(K, dim)), r.normal(size=(K, dim))])
    levels[1, K // 2:] = levels[1, r.integers(0, max(1, K // 2),
                                              size=K - K // 2)]
    x = near_float32_ties(r, levels[0], n, 4)
    half = n // 2
    x[:half] = (levels[0, r.integers(0, K, size=half)]
                + near_float32_ties(r, levels[1], half, 4))
    levels[0] += offset
    x += offset
    levels, x = levels * scale, x * scale
    with np.errstate(over="ignore", under="ignore"):
        want = _broadcast_assign(levels, x)
        got = rq_assign_batch(Codebook(levels=levels), x)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rq_assign_rejects_non_finite_rows(bad):
    cb = Codebook(levels=np.zeros((2, 3, 4)))
    x = np.zeros((5, 4))
    x[3, 2] = bad
    with pytest.raises(NumericError, match="non-finite input row 3"):
        rq_assign_batch(cb, x)

