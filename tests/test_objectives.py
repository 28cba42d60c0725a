"""Tests for the contrastive objectives and the joint training loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sidforge import numkit, objectives, summarizer
from sidforge.catalog import build_positive_sets
from sidforge.checkpoint import UniSidBundle, save_checkpoint
from sidforge.errors import ConfigurationError, InputError, NumericError
from sidforge.objectives import (ContrastBatch, LossReport, TrainConfig,
                                 contrastive_terms, emb_contrastive_loss,
                                 make_contrast_batch, mg_contrastive_loss,
                                 total_loss, train_unisid)
from sidforge.summarizer import build_vocab, init_pipeline
from sidforge.unisid import UniSidConfig, init_model
from test_numkit import _oracle_adam_step, _oracle_store_step
from test_summarizer import _oracle_recon_scatter
from testkit import code_usage_loss


def _batch(catalog, ids, tau=0.07):
    return make_contrast_batch(catalog, list(ids), tau)


def _oracle_mg(level_logits, batch):
    """Loop-based reimplementation of the multi-granularity loss."""
    n, L, K = level_logits.shape
    total = 0.0
    for lvl in range(L):
        z = level_logits[:, lvl, :]
        zh = z / np.linalg.norm(z, axis=1, keepdims=True)
        sim = zh @ zh.T
        terms = []
        for i in range(n):
            pos = batch.level_pos[lvl][i]
            if len(pos) == 0:
                continue
            cand = [j for j in range(n) if j != i]
            lse = np.log(np.sum(np.exp(sim[i, cand] / batch.tau)))
            terms.append(lse - np.mean(sim[i, pos]) / batch.tau)
        if terms:
            total += np.mean(terms) / L
    return total


def _oracle_normalize_rows(z):
    norms = np.linalg.norm(z, axis=1)
    return z / norms[:, None], norms


def _oracle_cosine_backprop(g_sim, zh, norms):
    u = (g_sim + g_sim.T) @ zh
    radial = np.sum(u * zh, axis=1, keepdims=True)
    return (u - radial * zh) / norms[:, None]


def _oracle_infonce(sim, tau, pos_mask):
    """Supervised InfoNCE over one similarity matrix, on the contributing
    queries only: (sum of query losses, gradient, their number)."""
    n_pos = pos_mask.sum(axis=1)
    valid = n_pos > 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        return 0.0, np.zeros_like(sim), 0
    logits = sim[valid] / tau
    rows = np.flatnonzero(valid)
    logits[np.arange(n_valid), rows] = -np.inf
    m = logits.max(axis=1, keepdims=True)
    soft = np.exp(logits - m)
    z = soft.sum(axis=1, keepdims=True)
    pos = pos_mask[valid]
    k = n_pos[valid]
    pos_mean = np.where(pos, logits, 0.0).sum(axis=1) / k
    total = float(np.sum(m[:, 0] + np.log(z[:, 0]) - pos_mean))
    g = np.zeros_like(sim)
    g[valid] = (soft / z - pos / k[:, None]) / tau
    return total, g, n_valid


def _oracle_mg_index_sets(level_logits, batch):
    """mg_contrastive_loss as it was built, one level at a time with
    early exits, from per-row positive arrays turned back into masks; the
    stacked kernel must match it bit for bit."""
    level_logits = np.asarray(level_logits, dtype=np.float64)
    n, L, K = level_logits.shape
    grad = np.zeros_like(level_logits)
    loss = 0.0
    for lvl in range(L):
        pos_sets = batch.level_pos[lvl]
        mask = np.zeros((n, n), dtype=bool)
        counts = [len(p) for p in pos_sets]
        if sum(counts):
            mask[np.repeat(np.arange(n), counts),
                 np.concatenate(pos_sets)] = True
        zh, norms = _oracle_normalize_rows(level_logits[:, lvl, :])
        lsum, g_sim, n_valid = _oracle_infonce(zh @ zh.T, batch.tau, mask)
        if n_valid == 0:
            continue
        loss += lsum / (n_valid * L)
        grad[:, lvl, :] = _oracle_cosine_backprop(
            g_sim / (n_valid * L), zh, norms)
    return loss, grad


def _oracle_usage(logits, tau):
    """Loop-based KL(mean p || uniform) + mean per-item entropy."""
    n, K = logits.shape
    probs = []
    for i in range(n):
        zh = logits[i] / np.linalg.norm(logits[i])
        e = np.exp(zh / tau)
        probs.append(e / e.sum())
    kl = 0.0
    for k in range(K):
        pbar = sum(p[k] for p in probs) / n
        kl += pbar * np.log(pbar * K)
    ent = sum(-sum(p[k] * np.log(p[k]) for k in range(K)) for p in probs)
    return kl + ent / n


def _oracle_emb(emb, batch):
    n = emb.shape[0]
    zh = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sim = zh @ zh.T
    terms = []
    for i in range(n):
        j = batch.emb_pos[i]
        if j < 0:
            continue
        cand = [c for c in range(n) if c != i]
        lse = np.log(np.sum(np.exp(sim[i, cand] / batch.tau)))
        terms.append(lse - sim[i, j] / batch.tau)
    return float(np.mean(terms))


def test_contrast_batch_rejects_bad_tau():
    with pytest.raises(ConfigurationError):
        ContrastBatch(ids=[0], level_masks=[], emb_pos=np.array([-1]),
                      tau=0.0)


def test_emb_pos_is_lowest_id_same_leaf_mate(small_catalog):
    ids = list(range(16))  # leaf = i % 8, so i and i + 8 are leaf mates
    cb = _batch(small_catalog, ids)
    for i, item_id in enumerate(ids):
        mate = ids.index(item_id + 8 if item_id < 8 else item_id - 8)
        assert cb.emb_pos[i] == mate


def test_emb_pos_picks_lowest_id_among_several_mates(small_catalog):
    # ids 16, 8 and 0 share leaf 0; the pairing goes by item id, not by
    # batch position
    cb = _batch(small_catalog, [16, 8, 0, 1])
    assert cb.emb_pos.tolist() == [2, 2, 1, -1]


def test_emb_pos_missing_mate(small_catalog):
    cb = _batch(small_catalog, [0, 1, 2, 8])  # only 0 and 8 share a leaf
    assert cb.emb_pos.tolist() == [3, -1, -1, 0]


def test_mg_loss_matches_loop_oracle(small_catalog, rng):
    ids = list(range(24))
    cb = _batch(small_catalog, ids)
    logits = rng.normal(size=(24, 3, 16))
    loss, _ = mg_contrastive_loss(logits, cb)
    assert np.isclose(loss, _oracle_mg(logits, cb), rtol=1e-12)


def test_level_positives_are_one_taxonomy_level_finer(small_catalog):
    ids = list(range(24))
    masks = build_positive_sets(small_catalog, ids)
    cb = _batch(small_catalog, ids)
    for got, want in zip(cb.level_pos, masks[[1, 2, 2]]):
        assert [p.tolist() for p in got] == [
            np.flatnonzero(row).tolist() for row in want]


def _split_rows(mask):
    """Per-row positive arrays as build_positive_sets once stored them:
    one np.nonzero over the mask, split at the row ends."""
    _, cols = np.nonzero(mask)
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    return [cols[a:b] for a, b in zip([0] + ends[:-1], ends)]


@pytest.mark.parametrize("seed", range(3))
def test_positive_rows_derived_from_masks(small_catalog, seed):
    rng = np.random.default_rng(seed)
    ids = rng.permutation(len(small_catalog.items))[:24].tolist()
    masks = build_positive_sets(small_catalog, ids)
    cb = _batch(small_catalog, ids)
    np.testing.assert_array_equal(cb.level_masks, masks[[1, 2, 2]])
    for rows, mask in zip(cb.level_pos, cb.level_masks):
        want = _split_rows(mask)
        assert len(rows) == len(want) == len(ids)
        for got, exp in zip(rows, want):
            assert got.dtype == exp.dtype
            np.testing.assert_array_equal(got, exp)


def test_usage_loss_matches_loop_oracle(rng):
    logits = rng.normal(size=(24, 16))
    loss, _ = code_usage_loss(logits)
    assert np.isclose(loss, _oracle_usage(logits, 0.1), rtol=1e-12)


def test_usage_loss_gradient_finite_difference(rng):
    logits = rng.normal(size=(12, 16))
    _, grad = code_usage_loss(logits)
    h = 1e-5
    for _ in range(40):
        idx = tuple(rng.integers(s) for s in logits.shape)
        up, dn = logits.copy(), logits.copy()
        up[idx] += h
        dn[idx] -= h
        fd = (code_usage_loss(up)[0] - code_usage_loss(dn)[0]) / (2 * h)
        assert abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1.0) < 1e-5


def test_mg_loss_identical_vectors_closed_form(small_catalog):
    # with identical rows every cosine is 1 and each query's loss reduces
    # to log(n - 1) regardless of tau or the positive sets
    ids = list(range(16))
    cb = _batch(small_catalog, ids)
    logits = np.tile(np.arange(1.0, 49.0).reshape(1, 3, 16), (16, 1, 1))
    loss, _ = mg_contrastive_loss(logits, cb)
    assert np.isclose(loss, np.log(15.0), rtol=1e-12)


def test_mg_loss_gradient_finite_difference(small_catalog, rng):
    ids = list(range(12))
    cb = _batch(small_catalog, ids)
    logits = rng.normal(size=(12, 3, 16))
    _, grad = mg_contrastive_loss(logits, cb)
    h = 1e-5
    for _ in range(40):
        idx = tuple(rng.integers(s) for s in logits.shape)
        up, dn = logits.copy(), logits.copy()
        up[idx] += h
        dn[idx] -= h
        fd = (mg_contrastive_loss(up, cb)[0]
              - mg_contrastive_loss(dn, cb)[0]) / (2 * h)
        assert abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1.0) < 1e-5


def test_emb_loss_matches_loop_oracle(small_catalog, rng):
    ids = list(range(16))
    cb = _batch(small_catalog, ids)
    emb = rng.normal(size=(16, 32))
    loss, _ = emb_contrastive_loss(emb, cb)
    assert np.isclose(loss, _oracle_emb(emb, cb), rtol=1e-12)


def test_emb_loss_gradient_finite_difference(small_catalog, rng):
    ids = list(range(10))
    cb = _batch(small_catalog, ids)
    emb = rng.normal(size=(10, 8))
    _, grad = emb_contrastive_loss(emb, cb)
    h = 1e-5
    for _ in range(40):
        idx = tuple(rng.integers(s) for s in emb.shape)
        up, dn = emb.copy(), emb.copy()
        up[idx] += h
        dn[idx] -= h
        fd = (emb_contrastive_loss(up, cb)[0]
              - emb_contrastive_loss(dn, cb)[0]) / (2 * h)
        assert abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1.0) < 1e-5


def test_emb_loss_requires_a_mate(small_catalog, rng):
    cb = _batch(small_catalog, [0, 1, 2, 3])  # distinct leaves
    with pytest.raises(InputError):
        emb_contrastive_loss(rng.normal(size=(4, 8)), cb)


def test_zero_norm_vector_rejected(small_catalog):
    cb = _batch(small_catalog, list(range(16)))
    bad = np.ones((16, 3, 16))
    bad[3, 1, :] = 0.0
    with pytest.raises(NumericError):
        mg_contrastive_loss(bad, cb)


def test_total_loss_weighting_and_nan():
    assert total_loss(1.0, 2.0, 3.0, 0.5) == 1.0 + 2.0 + 0.5 * 3.0
    with pytest.raises(NumericError):
        total_loss(np.nan, 0.0, 0.0, 0.1)


def test_train_config_validation():
    for bad in (TrainConfig(lam=-0.1), TrainConfig(tau=0.0),
                TrainConfig(batch_size=1), TrainConfig(epochs=-1)):
        with pytest.raises(ConfigurationError):
            bad.validate()
    assert TrainConfig(epochs=10).warmup == 5
    assert TrainConfig(epochs=10, decoder_warmup_epochs=2).warmup == 2


def _tiny_config(**kw):
    base = dict(epochs=4, batch_size=16, seed=5, d_h=16, d_e=8, d_r=8)
    base.update(kw)
    return TrainConfig(**base)


def test_train_unisid_loss_decreases(small_catalog):
    _, _, report = train_unisid(small_catalog, _tiny_config(epochs=6))
    steps_per_epoch = int(np.ceil(len(small_catalog.train_ids) / 16))
    means = report.epoch_means(steps_per_epoch)
    assert means[-1] < means[0]


def test_train_unisid_deterministic(small_catalog):
    m1, p1, r1 = train_unisid(small_catalog, _tiny_config())
    m2, p2, r2 = train_unisid(small_catalog, _tiny_config())
    for a, b in zip(m1.encoder.flat() + m1.sid_head.flat()
                    + m1.emb_head.flat() + p1.decoder.flat(),
                    m2.encoder.flat() + m2.sid_head.flat()
                    + m2.emb_head.flat() + p2.decoder.flat()):
        np.testing.assert_array_equal(a, b)
    assert r1.steps == r2.steps


@pytest.mark.parametrize("overrides", [{"decoder_warmup_epochs": 0},
                                       {"lam": 0.0}],
                         ids=["no_warmup", "lam_0"])
def test_train_unisid_leaves_frozen_decoder_alone(small_catalog, overrides):
    tc = _tiny_config(epochs=2, **overrides)
    # fresh copies of the initial parameters: training updates in place
    init = init_model(small_catalog.spec.feature_dim,
                      UniSidConfig(tc.L, tc.K, tc.d_h, tc.d_e), tc.seed)
    pipe0 = init_pipeline(tc.L, tc.K, tc.d_e, tc.d_r,
                          build_vocab(small_catalog.tree), tc.seed + 1)
    model, pipe, _ = train_unisid(small_catalog, tc)
    for a, b in zip(pipe.decoder.flat(), pipe0.decoder.flat()):
        np.testing.assert_array_equal(a, b)
    # the base group still trains
    for name in ("encoder", "sid_head", "emb_head"):
        for a, b in zip(getattr(model, name).flat(),
                        getattr(init, name).flat()):
            assert not np.array_equal(a, b), name


def test_train_unisid_ablation_flags(small_catalog):
    _, _, r = train_unisid(small_catalog,
                           _tiny_config(epochs=1, use_sid=False))
    assert all(s[0] == 0.0 and s[4] == 0.0 for s in r.steps)
    _, _, r = train_unisid(small_catalog,
                           _tiny_config(epochs=1, use_emb=False))
    assert all(s[1] == 0.0 for s in r.steps)


def test_mg_loss_bits_match_index_set_oracle(small_catalog, rng):
    for ids in (list(range(24)), [0, 8, 1, 2, 10, 5, 7, 4]):
        cb = _batch(small_catalog, ids)
        logits = rng.normal(size=(len(ids), 3, 16))
        loss, grad = mg_contrastive_loss(logits, cb)
        o_loss, o_grad = _oracle_mg_index_sets(logits, cb)
        assert loss == o_loss and np.array_equal(grad, o_grad)


def _oracle_emb_bits(emb, batch):
    """emb_contrastive_loss as it was built, on one similarity matrix."""
    n = emb.shape[0]
    mask = np.zeros((n, n), dtype=bool)
    mate = batch.emb_pos >= 0
    mask[mate, batch.emb_pos[mate]] = True
    zh, norms = _oracle_normalize_rows(emb)
    lsum, g_sim, n_valid = _oracle_infonce(zh @ zh.T, batch.tau, mask)
    return lsum / n_valid, _oracle_cosine_backprop(g_sim / n_valid, zh, norms)


@pytest.mark.parametrize("ids", [
    list(range(8)),   # eight distinct leaves: SID levels 2 and 3 skip all
    [0, 2, 4, 6],     # distinct level-2 nodes too: every level skips all
    [0, 1], [0, 2], [0, 8],   # two items: some, none or all levels
    [0, 8, 1, 9, 2, 3, 16]])  # a mix of skipped and contributing queries
def test_mg_loss_bits_match_per_level_oracle_with_skipped_levels(
        small_catalog, rng, ids):
    cb = _batch(small_catalog, ids)
    for K in (4, 16):
        logits = rng.normal(size=(len(ids), 3, K))
        loss, grad = mg_contrastive_loss(logits, cb)
        o_loss, o_grad = _oracle_mg_index_sets(logits, cb)
        assert loss == o_loss
        assert grad.tobytes() == o_grad.tobytes()
        if np.any(cb.emb_pos >= 0):
            emb = rng.normal(size=(len(ids), 8))
            e_loss, e_grad = emb_contrastive_loss(emb, cb)
            o_loss, o_grad = _oracle_emb_bits(emb, cb)
            assert e_loss == o_loss
            assert e_grad.tobytes() == o_grad.tobytes()


@pytest.mark.parametrize("ids", [
    list(range(24)), [0, 8, 1, 9, 2, 3, 16],
    [0, 2, 4, 6]])   # no query has a mate: the embedding term is off
@pytest.mark.parametrize("use_sid, use_emb", [
    (True, True), (True, False), (False, True), (False, False)])
def test_contrastive_terms_match_their_functions(small_catalog, rng, ids,
                                                 use_sid, use_emb):
    cb = _batch(small_catalog, ids)
    logits = rng.normal(size=(len(ids), 3, 16))
    emb = rng.normal(size=(len(ids), 8))
    got = contrastive_terms(logits, emb, cb, use_sid, use_emb)
    want_sid = (0.0, 0.0, np.zeros_like(logits))
    if use_sid:
        l_sid, g_logits = mg_contrastive_loss(logits, cb)
        l_use, g_use = code_usage_loss(logits[:, 0, :])
        g_logits[:, 0, :] += objectives.USAGE_WEIGHT * g_use
        want_sid = (l_sid, l_use, g_logits)
    want_emb = (0.0, np.zeros_like(emb))
    if use_emb and np.any(cb.emb_pos >= 0):
        want_emb = emb_contrastive_loss(emb, cb)
    for a, b in zip(got, want_sid + want_emb):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _train_bytes(catalog, tc, path):
    model, pipe, report = train_unisid(catalog, tc)
    save_checkpoint(UniSidBundle(model=model, pipeline=pipe), str(path))
    return path.read_bytes(), report.steps


def _oracle_contrastive_terms(logits, emb, batch, use_sid, use_emb):
    """contrastive_terms with both terms on, as train_unisid composed it
    before the joint stack: the per-level and one-matrix oracles, and
    code_usage_loss normalising the level-1 block itself."""
    l_sid, g_logits = _oracle_mg_index_sets(logits, batch)
    l_use, g_use = code_usage_loss(logits[:, 0, :])
    g_logits[:, 0, :] += objectives.USAGE_WEIGHT * g_use
    l_emb, g_emb = _oracle_emb_bits(emb, batch)
    return l_sid, l_use, g_logits, l_emb, g_emb


@pytest.mark.parametrize("lam", [0.1, 0.0])
def test_train_step_matches_oracle_kernels(small_catalog, tmp_path,
                                           monkeypatch, lam):
    # a warm-up of 1 in 2 epochs runs the trained and the frozen decoder
    tc = _tiny_config(epochs=2, decoder_warmup_epochs=1, lam=lam)
    got = _train_bytes(small_catalog, tc, tmp_path / "kernel.ckpt")
    calls = {}

    def counted(name, fn):
        def run(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return run

    def oracle_recon(h, t, p, buffers, **grads):
        # the dense oracle's W0 gradient, gathered to the live rows; it
        # computes the prefix sums from the targets, not the frozen table
        loss, g_h, dec = _oracle_recon_scatter(h, t, p)
        return loss, g_h, [dec[0][buffers.live_rows]] + dec[1:]

    monkeypatch.setattr(summarizer, "recon_loss",
                        counted("recon", oracle_recon))
    monkeypatch.setattr(numkit, "adam_step",
                        counted("adam", _oracle_adam_step))
    monkeypatch.setattr(numkit.ParamStore, "step",
                        counted("store", _oracle_store_step))
    monkeypatch.setattr(objectives, "contrastive_terms",
                        counted("contrast", _oracle_contrastive_terms))
    want = _train_bytes(small_catalog, tc, tmp_path / "oracle.ckpt")
    assert got[0] == want[0]
    assert got[1] == want[1]
    # every oracle ran: one base-store step per step, plus the decoder's
    # in the warm-up epoch (half the steps) when lam > 0
    steps = len(got[1])
    assert calls["recon"] == calls["contrast"] == steps > 0
    assert calls["store"] == calls["adam"] == steps + (lam > 0) * steps // 2


def test_lam_zero_step_skips_only_zero_gradients(small_catalog, monkeypatch):
    # lam = 0 skips the reconstruction backward pass.  The result is the
    # lam > 0 run whose reconstruction gradient is zero and whose decoder
    # never trains, and the head and decoder keep their initial bits.
    tc = _tiny_config(epochs=2, lam=0.0)
    model, pipe, report = train_unisid(small_catalog, tc)
    recon_loss = summarizer.recon_loss

    def zero_gradient(h, t, p, buffers, **grads):
        loss, g_h, _ = recon_loss(h, t, p, buffers, decoder_grads=False)
        return loss, np.zeros_like(g_h), None

    monkeypatch.setattr(summarizer, "recon_loss", zero_gradient)
    want_model, want_pipe, want_report = train_unisid(
        small_catalog, _tiny_config(epochs=2, lam=0.5,
                                    decoder_warmup_epochs=0))
    init = init_pipeline(tc.L, tc.K, tc.d_e, tc.d_r,
                         build_vocab(small_catalog.tree), tc.seed + 1)
    for got, *want in ((model.encoder, want_model.encoder),
                       (model.sid_head, want_model.sid_head),
                       (model.emb_head, want_model.emb_head),
                       (pipe.recon_head, want_pipe.recon_head,
                        init.recon_head),
                       (pipe.decoder, want_pipe.decoder, init.decoder)):
        for w in want:
            assert [p.tobytes() for p in got.flat()] == [
                p.tobytes() for p in w.flat()]
    # every column but L_total, which weighs L_rec by lam
    assert [r[:3] + r[4:] for r in report.steps] == [
        r[:3] + r[4:] for r in want_report.steps]


def test_loss_report_csv(tmp_path):
    r = LossReport()
    r.record(1.0, 2.0, 3.0, 6.0, 0.25)
    r.record(0.5, 0.5, 0.5, 1.5, 0.125)
    path = tmp_path / "losses.csv"
    r.save_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,L_sid,L_emb,L_rec,L_total,L_use"
    assert lines[1] == "0,1,2,3,6,0.25"
    assert r.epoch_means(2) == [4.0 - 0.25]


def _assert_rows_permute(got, want):
    # the summation order changes with the batch order; atol covers
    # entries that cancel to round-off
    scale = max(float(np.abs(want).max()), 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13 * scale)


_batches = st.lists(st.integers(min_value=0, max_value=63), min_size=2,
                    max_size=24, unique=True)


@settings(max_examples=30, deadline=None)
@given(batch=_batches, seed=st.integers(0, 2**32 - 1))
def test_mg_loss_permutation_invariant(small_catalog, batch, seed):
    rng = np.random.default_rng(seed)
    n = len(batch)
    logits = rng.normal(size=(n, 3, 16))
    perm = rng.permutation(n)
    loss, grad = mg_contrastive_loss(logits, _batch(small_catalog, batch))
    loss_p, grad_p = mg_contrastive_loss(
        logits[perm], _batch(small_catalog, [batch[i] for i in perm]))
    assert np.isclose(loss_p, loss, rtol=1e-12, atol=1e-15)
    _assert_rows_permute(grad_p, grad[perm])


@settings(max_examples=30, deadline=None)
@given(batch=_batches, seed=st.integers(0, 2**32 - 1))
def test_emb_loss_permutation_invariant(small_catalog, batch, seed):
    rng = np.random.default_rng(seed)
    n = len(batch)
    emb = rng.normal(size=(n, 8))
    perm = rng.permutation(n)
    cb = _batch(small_catalog, batch)
    cb_p = _batch(small_catalog, [batch[i] for i in perm])
    if not np.any(cb.emb_pos >= 0):
        for b, e in ((cb, emb), (cb_p, emb[perm])):
            with pytest.raises(InputError):
                emb_contrastive_loss(e, b)
        return
    # the pairing goes by item id, so it moves with the batch
    np.testing.assert_array_equal(
        cb_p.emb_pos, np.where(cb.emb_pos[perm] >= 0,
                               np.argsort(perm)[cb.emb_pos[perm]], -1))
    loss, grad = emb_contrastive_loss(emb, cb)
    loss_p, grad_p = emb_contrastive_loss(emb[perm], cb_p)
    assert np.isclose(loss_p, loss, rtol=1e-12, atol=1e-15)
    _assert_rows_permute(grad_p, grad[perm])


def _fd_check(loss_fn, x, rng, n_coords=30, h=1e-5):
    _, grad = loss_fn(x)
    for _ in range(n_coords):
        idx = tuple(rng.integers(s) for s in x.shape)
        up, dn = x.copy(), x.copy()
        up[idx] += h
        dn[idx] -= h
        fd = (loss_fn(up)[0] - loss_fn(dn)[0]) / (2 * h)
        assert abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1.0) < 1e-5


def test_mg_loss_level_without_positives(rng):
    # level 0 has positives for some queries, levels 1 and 2 for none
    empty = np.zeros((5, 5), dtype=bool)
    pos0 = empty.copy()
    pos0[[0, 2, 3, 4], [3, 4, 0, 2]] = True   # query 1 has no positive
    cb = ContrastBatch(ids=list(range(5)),
                       level_masks=np.stack([pos0, empty, empty]),
                       emb_pos=np.full(5, -1), tau=0.07)
    logits = rng.normal(size=(5, 3, 8))
    loss, grad = mg_contrastive_loss(logits, cb)
    assert np.isclose(loss, _oracle_mg(logits, cb), rtol=1e-12)
    assert np.all(grad[:, 1:, :] == 0.0)
    # query 1 has no positive but is still a negative for the others
    assert np.any(grad[1, 0, :] != 0.0)
    _fd_check(lambda x: mg_contrastive_loss(x, cb), logits, rng)

    none = ContrastBatch(ids=list(range(5)),
                         level_masks=np.stack([empty] * 3),
                         emb_pos=np.full(5, -1), tau=0.07)
    loss, grad = mg_contrastive_loss(logits, none)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_mg_loss_partial_positives_match_oracle(small_catalog, rng):
    # leaf = id % 8 on the (2,2,2) tree: only some queries share a leaf
    # or a level-2 node with another batch item
    ids = [0, 8, 1, 2, 10, 5, 7, 4]
    cb = _batch(small_catalog, ids)
    for pos in cb.level_pos:
        has = [len(p) > 0 for p in pos]
        assert any(has) and not all(has)
    logits = rng.normal(size=(len(ids), 3, 16))
    loss, _ = mg_contrastive_loss(logits, cb)
    assert np.isclose(loss, _oracle_mg(logits, cb), rtol=1e-12)
    _fd_check(lambda x: mg_contrastive_loss(x, cb), logits, rng)


def test_positive_sets_nest_on_real_batches(medium_catalog):
    masks = build_positive_sets(medium_catalog, list(range(40)))
    # a pair positive at a finer level is positive at every coarser one
    assert masks[-1].any() and not np.any(masks[1:] & ~masks[:-1])
