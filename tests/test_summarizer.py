"""Tests for the summary template, vocabulary, and reconstruction path."""

import numpy as np
import pytest

from sidforge import numkit
from sidforge.catalog import CatalogSpec, build_tree, generate_catalog
from sidforge.errors import CatalogError, ConfigurationError, InputError, ShapeError
from sidforge.summarizer import (BOS_ID, EOS_ID, MAX_VOCAB, SUMMARY_LEN,
                                 TRAIT_COUNT, ReconBuffers, ReconPipeline,
                                 _first_layer, build_vocab, decode_summary,
                                 prefix_sums, reached_rows, recon_state,
                                 summarize, summary_text, trait_a, trait_b)
from testkit import init_pipeline, recon_loss


def test_vocab_layout():
    tree = build_tree((2, 2, 2))
    vocab = build_vocab(tree)
    assert vocab.tokens[BOS_ID] == "<bos>"
    assert vocab.tokens[EOS_ID] == "<eos>"
    # bos, eos, 2 glue, industry, 2 level-1 names, 16 traits, 8 leaves
    assert len(vocab) == 2 + 2 + 1 + 2 + TRAIT_COUNT + 8
    assert len(vocab) <= MAX_VOCAB
    for i, t in enumerate(vocab.tokens):
        assert vocab.id_of(t) == i
    with pytest.raises(CatalogError):
        vocab.id_of("no-such-token")


def test_vocab_size_limit():
    with pytest.raises(ConfigurationError):
        build_vocab(build_tree((4, 5, 6)))  # 120 leaves overflow the cap


def test_traits_injective():
    assert len({trait_a(l) for l in range(TRAIT_COUNT)}) == TRAIT_COUNT
    assert len({trait_b(l) for l in range(TRAIT_COUNT)}) == TRAIT_COUNT


def test_summarize_template(small_catalog):
    tree = small_catalog.tree
    vocab = build_vocab(tree)
    labels = small_catalog.labels[0]
    seq = summarize(labels, tree, vocab)
    c1, c2, c3 = labels
    assert len(seq) == SUMMARY_LEN
    assert vocab.tokens[seq[0]] == f"content:{tree.names[3][c3]}"
    assert vocab.tokens[seq[1]].startswith("industry:")
    assert vocab.tokens[seq[2]] == f"cat:{tree.names[1][c1]}"
    assert vocab.tokens[seq[3]] == f"trait:{trait_a(c3):02d}"
    assert vocab.tokens[seq[4]] == f"trait:{trait_b(c2):02d}"
    assert seq[7] == EOS_ID
    assert "content:" in summary_text(seq, vocab)


def test_sibling_leaves_get_distinct_summaries(small_catalog):
    tree = small_catalog.tree
    # leaves 0 and 1 share the same level-2 parent in a (2,2,2) tree
    a = small_catalog.labels[0]   # leaf 0
    b = small_catalog.labels[1]   # leaf 1
    assert (a[:2] == b[:2]).all()
    vocab = build_vocab(tree)
    sa, sb = summarize(a, tree, vocab), summarize(b, tree, vocab)
    assert sa[0] != sb[0] and sa[3] != sb[3]   # content and trait-A differ
    assert sa[4] == sb[4]                      # shared trait-B


def test_summarize_rejects_bad_labels(small_catalog):
    with pytest.raises(CatalogError):
        summarize((0, 0, 99), small_catalog.tree,
                  build_vocab(small_catalog.tree))


def _oracle_prefix_encoding(prefix, v):
    """(n, t) token prefix -> (n, SUMMARY_LEN * v) one-hots, later
    positions zero."""
    n, t = prefix.shape
    out = np.zeros((n, SUMMARY_LEN * v), dtype=np.float64)
    for i in range(n):
        for s in range(t):
            out[i, s * v + prefix[i, s]] = 1.0
    return out


def _oracle_recon(h_rec, targets, pipeline):
    """Per-position teacher-forced loss over dense one-hot prefix inputs,
    running the whole decoder once per position."""
    v = len(pipeline.vocab)
    n = h_rec.shape[0]
    loss = 0.0
    g_h = np.zeros_like(h_rec)
    dec_grads = [np.zeros_like(p) for p in pipeline.decoder.flat()]
    for t in range(SUMMARY_LEN):
        x = np.concatenate(
            [h_rec, _oracle_prefix_encoding(targets[:, :t], v)], axis=1)
        logits, cache = numkit.mlp_apply(pipeline.decoder, x)
        m = logits.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
        tok = targets[:, t]
        loss += float(np.mean(lse - logits[np.arange(n), tok]))
        soft = np.exp(logits - m)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[np.arange(n), tok] -= 1.0
        grads, gx = numkit.mlp_grad(pipeline.decoder, cache, soft / n)
        for i, g in enumerate(grads):
            dec_grads[i] += g
        g_h += gx[:, :pipeline.d_r]
    return loss, g_h, dec_grads


def _oracle_decode(h_rec, pipeline):
    """Greedy decoding that re-encodes the whole prefix at every step."""
    v = len(pipeline.vocab)
    n = h_rec.shape[0]
    prefix = np.zeros((n, 0), dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    for _ in range(SUMMARY_LEN):
        x = np.concatenate([h_rec, _oracle_prefix_encoding(prefix, v)],
                           axis=1)
        logits, _ = numkit.mlp_apply(pipeline.decoder, x)
        tok = np.argmax(logits, axis=1)
        tok[done] = EOS_ID
        prefix = np.concatenate([prefix, tok[:, None]], axis=1)
        done |= tok == EOS_ID
    return prefix


def _oracle_recon_scatter(h_rec, targets, pipeline):
    """recon_loss as it was built on np.cumsum, np.add.at and a
    concatenated first-layer gradient; the kernel must match it bit for
    bit."""
    h_rec = np.atleast_2d(np.asarray(h_rec, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.int64))
    n = h_rec.shape[0]
    base, prefix_rows, tail = _first_layer(h_rec, pipeline)
    pos = np.arange(SUMMARY_LEN - 1)
    picked = prefix_rows[pos, targets[:, :-1]]
    pre = np.repeat(base[:, None, :], SUMMARY_LEN, axis=1)
    pre[:, 1:] += np.cumsum(picked, axis=1)
    logits, cache = numkit.mlp_apply(
        tail, np.maximum(pre, 0.0).reshape(n * SUMMARY_LEN, -1))
    tok = targets.reshape(-1)
    rows = np.arange(n * SUMMARY_LEN)
    m = logits.max(axis=1, keepdims=True)
    soft = np.exp(logits - m)
    z = soft.sum(axis=1)
    loss = float(np.sum(m[:, 0] + np.log(z) - logits[rows, tok])) / n
    soft /= z[:, None]
    soft[rows, tok] -= 1.0
    tail_grads, g_act = numkit.mlp_grad(tail, cache, soft / n)
    g_pre = g_act.reshape(pre.shape)
    g_pre *= pre > 0.0
    g_base = g_pre.sum(axis=1)
    g_picked = np.cumsum(g_pre[:, :0:-1], axis=1)[:, ::-1]
    g_rows = np.zeros_like(prefix_rows)
    np.add.at(g_rows, (pos, targets[:, :-1]), g_picked)
    w0 = pipeline.decoder.weights[0]
    g_w0 = np.concatenate([h_rec.T @ g_base,
                           g_rows.reshape(-1, w0.shape[1])])
    g_h = g_base @ w0[:pipeline.d_r].T
    return loss, g_h, [g_w0, g_base.sum(axis=0)] + tail_grads


def _pipeline(seed=0, d_r=6):
    vocab = build_vocab(build_tree((2, 2, 2)))
    return init_pipeline(L=2, K=4, d_e=5, d_r=d_r, vocab=vocab, seed=seed,
                         hidden=16), vocab


def test_pipeline_shape_validation(rng):
    pipe, vocab = _pipeline()
    with pytest.raises(ShapeError):
        ReconPipeline(recon_head=pipe.recon_head,
                      decoder=numkit.mlp_init([3, len(vocab)], rng),
                      vocab=vocab, d_r=pipe.d_r)
    with pytest.raises(ShapeError):
        ReconPipeline(recon_head=pipe.recon_head,
                      decoder=numkit.mlp_init(
                          [pipe.d_r + SUMMARY_LEN * len(vocab), 3], rng),
                      vocab=vocab, d_r=pipe.d_r)


@pytest.mark.parametrize("seed", range(6))
def test_recon_loss_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    pipe, vocab = _pipeline(seed=seed, d_r=int(rng.integers(3, 9)))
    n = int(rng.integers(1, 12))
    h = rng.normal(size=(n, pipe.d_r))
    targets = rng.integers(0, len(vocab), size=(n, SUMMARY_LEN))
    loss, g_h, dec = recon_loss(h, targets, pipe)
    o_loss, o_g_h, o_dec = _oracle_recon(h, targets, pipe)
    assert np.isclose(loss, o_loss, rtol=1e-12, atol=0.0)
    # the summation order differs, so entries that cancel to ~1e-16 carry
    # a large relative error; atol is ten float64 ulps at magnitude 1
    np.testing.assert_allclose(g_h, o_g_h, rtol=1e-12, atol=1e-15)
    assert len(dec) == len(o_dec)
    for g, o in zip(dec, o_dec):
        assert g.shape == o.shape
        np.testing.assert_allclose(g, o, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_recon_loss_bits_match_scatter_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    pipe, vocab = _pipeline(seed=seed, d_r=int(rng.integers(3, 9)))
    n = int(rng.integers(20, 48))
    h = rng.normal(size=(n, pipe.d_r))
    if seed % 3:
        targets = rng.integers(0, len(vocab), size=(n, SUMMARY_LEN))
    else:
        # scatter collisions: most rows pick one of two tokens at every
        # position, so each bin sums many rows
        targets = rng.choice([4, 9, int(rng.integers(len(vocab)))],
                             p=[0.45, 0.45, 0.1], size=(n, SUMMARY_LEN))
    loss, g_h, dec = recon_loss(h, targets, pipe)
    o_loss, o_g_h, o_dec = _oracle_recon_scatter(h, targets, pipe)
    assert loss == o_loss
    assert np.array_equal(g_h, o_g_h)
    assert len(dec) == len(o_dec)
    for g, o in zip(dec, o_dec):
        assert g.shape == o.shape and np.array_equal(g, o)
    # no decoder gradients: the same loss and h_rec gradient
    f_loss, f_g_h, f_dec = recon_loss(h, targets, pipe, decoder_grads=False)
    assert f_loss == o_loss and np.array_equal(f_g_h, o_g_h)
    assert f_dec is None


def test_recon_loss_without_input_grad(rng):
    pipe, vocab = _pipeline(seed=3)
    h = rng.normal(size=(9, pipe.d_r))
    targets = rng.integers(0, len(vocab), size=(9, SUMMARY_LEN))
    loss, _, dec = recon_loss(h, targets, pipe)
    d_loss, none, d_dec = recon_loss(h, targets, pipe, input_grad=False)
    assert none is None and d_loss == loss
    assert [g.tobytes() for g in d_dec] == [g.tobytes() for g in dec]
    # the forward pass alone: the loss of the full pass, to the bit
    assert recon_loss(h, targets, pipe, decoder_grads=False,
                      input_grad=False) == (loss, None, None)


@pytest.mark.parametrize("branching, n_items, train_fraction", [
    ((2, 2, 2), 64, 0.9), ((4, 4, 4), 512, 0.9),
    ((3, 3, 3), 60, 0.2)])    # the training split misses some leaves
def test_decoder_gradient_zero_outside_reached_rows(branching, n_items,
                                                    train_fraction):
    cat = generate_catalog(CatalogSpec(
        branching=branching, n_items=n_items, dv=4, dt=4,
        train_fraction=train_fraction, seed=5))
    vocab = build_vocab(cat.tree)
    targets = np.stack([summarize(lab, cat.tree, vocab)
                        for lab in cat.labels])
    train = np.asarray(cat.train_ids)
    pipe = init_pipeline(L=2, K=4, d_e=5, d_r=6, vocab=vocab, seed=1,
                         hidden=16)
    rows = reached_rows(targets[train], pipe)
    want = np.zeros(pipe.decoder.in_dim, dtype=bool)
    want[:pipe.d_r] = True
    for t in targets[train]:
        for s in range(SUMMARY_LEN - 1):
            want[pipe.d_r + s * len(vocab) + t[s]] = True
    assert np.array_equal(rows, want)
    missing = set(range(cat.spec.n_leaves)) - set(cat.labels[train, 2])
    assert bool(missing) == (train_fraction < 0.5)
    for leaf in missing:   # a leaf's own content token is never reached
        assert not rows[pipe.d_r + summarize(cat.tree.path(leaf), cat.tree,
                                             vocab)[0]]
    rng = np.random.default_rng(sum(branching))
    for _ in range(12):
        ids = rng.choice(train, size=int(rng.integers(1, len(train) + 1)),
                         replace=False)
        h = rng.normal(size=(len(ids), pipe.d_r))
        g_w0 = recon_loss(h, targets[ids], pipe)[2][0]
        assert g_w0[rows].any()
        assert not g_w0[~rows].any()   # exactly zero, the last slot included


def _summary_setup(seed=5):
    """A 4-4-4 catalog's summaries, a decoder, and its training split's
    live W0 rows."""
    cat = generate_catalog(CatalogSpec(branching=(4, 4, 4), n_items=512,
                                       dv=4, dt=4, seed=seed))
    vocab = build_vocab(cat.tree)
    leaf_targets = np.stack([summarize(cat.tree.path(leaf), cat.tree, vocab)
                             for leaf in range(cat.spec.n_leaves)])
    pipe = init_pipeline(L=2, K=4, d_e=5, d_r=6, vocab=vocab, seed=seed,
                         hidden=16)
    train = np.asarray(cat.train_ids)
    live = reached_rows(leaf_targets[cat.labels[train, 2]], pipe)
    return cat, leaf_targets, pipe, train, live


def _bytes(result):
    loss, g_h, dec = result
    return (loss, None if g_h is None else g_h.tobytes(),
            None if dec is None else [g.tobytes() for g in dec])


def test_reused_buffers_match_fresh_calls_and_scatter_oracle():
    cat, leaf_targets, pipe, train, live = _summary_setup()
    assert 0 < live.sum() < live.size
    buffers = ReconBuffers(pipe, 64, live)
    rng = np.random.default_rng(7)
    # a full batch, the short last batch, a lam = 0 forward-only call and
    # a full batch again, all through one set of buffers
    for n, flags in ((64, {}), (51, {}),
                     (64, dict(decoder_grads=False, input_grad=False)),
                     (64, {}), (33, dict(decoder_grads=False))):
        ids = rng.choice(train, size=n, replace=False)
        targets = leaf_targets[cat.labels[ids, 2]]
        h = rng.normal(size=(n, pipe.d_r))
        got = _bytes(recon_loss(h, targets, pipe, buffers=buffers, **flags))
        fresh = recon_loss(h, targets, pipe, **flags)
        o_loss, o_g_h, o_dec = _oracle_recon_scatter(h, targets, pipe)
        assert got[0] == fresh[0] == o_loss
        if flags.get("input_grad", True):
            assert got[1] == fresh[1].tobytes() == o_g_h.tobytes()
        else:
            assert got[1] is fresh[1] is None
        if flags.get("decoder_grads", True):
            # the live rows' block; every dead row of the oracle is +0.0
            assert got[2][0] == o_dec[0][live].tobytes()
            assert o_dec[0][~live].tobytes() == bytes(8 * o_dec[0][~live].size)
            assert got[2][1:] == [g.tobytes() for g in o_dec[1:]]
            # without buffers every row is live: the whole W0 gradient
            assert ([g.tobytes() for g in fresh[2]]
                    == [g.tobytes() for g in o_dec])
        else:
            assert got[2] is fresh[2] is None


def test_recon_buffers_checked():
    cat, leaf_targets, pipe, train, live = _summary_setup()
    with pytest.raises(ShapeError, match="conditioning"):
        ReconBuffers(pipe, 8, np.r_[False, live[1:]])
    with pytest.raises(ShapeError, match="conditioning"):
        ReconBuffers(pipe, 8, live[:-1])
    buffers = ReconBuffers(pipe, 8, live)
    assert buffers.n_live == live.sum()
    assert np.array_equal(buffers.slots[live], np.arange(buffers.n_live))
    assert (buffers.slots[~live] == -1).all()
    h = np.ones((9, pipe.d_r))
    targets = np.tile(leaf_targets[cat.labels[train[0], 2]], (9, 1))
    with pytest.raises(ShapeError, match="exceed"):
        recon_loss(h, targets, pipe, buffers=buffers)
    # a summary that picks a dead row has no place in the live block
    dead = int(np.flatnonzero(~live[pipe.d_r:pipe.d_r + len(pipe.vocab)])[0])
    targets[0, 0] = dead
    with pytest.raises(InputError, match="live rows"):
        recon_loss(h[:8], targets[:8], pipe, buffers=buffers)
    # the forward pass never needs a slot
    assert recon_loss(h[:8], targets[:8], pipe, decoder_grads=False,
                      buffers=buffers)[0] == recon_loss(
        h[:8], targets[:8], pipe)[0]


def test_frozen_prefix_table_matches_per_item_prefix_sums():
    cat, leaf_targets, pipe, train, live = _summary_setup(seed=9)
    table = prefix_sums(leaf_targets, pipe)
    assert table.shape == (cat.spec.n_leaves, SUMMARY_LEN - 1,
                           pipe.decoder.weights[0].shape[1])
    _, prefix_rows, _ = _first_layer(np.zeros((1, pipe.d_r)), pipe)
    pos = np.arange(SUMMARY_LEN - 1)
    for item in range(0, len(cat.labels), 7):
        t = leaf_targets[cat.labels[item, 2]]
        want = np.cumsum(prefix_rows[pos, t[:-1]], axis=0)
        assert table[cat.labels[item, 2]].tobytes() == want.tobytes()
        assert prefix_sums(t, pipe)[0].tobytes() == want.tobytes()
    # a batch's frozen-decoder loss and h_rec gradient from the table
    buffers = ReconBuffers(pipe, 64, live)
    rng = np.random.default_rng(3)
    for n in (64, 40):
        ids = rng.choice(train, size=n, replace=False)
        leaves = cat.labels[ids, 2]
        h = rng.normal(size=(n, pipe.d_r))
        got = recon_loss(h, leaf_targets[leaves], pipe, decoder_grads=False,
                         buffers=buffers, prefix=table[leaves])
        assert _bytes(got) == _bytes(recon_loss(
            h, leaf_targets[leaves], pipe, decoder_grads=False))


def test_decode_summary_matches_loop_oracle():
    ends = set()
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        pipe, _ = _pipeline(seed=seed)
        h = rng.normal(scale=2.0, size=(32, pipe.d_r))
        # larger prefix rows make each emitted token move the next scores,
        # and an end-marker bias at the 10% quantile of its first-step gap
        # makes some rows stop at the first step and others later
        pipe.decoder.weights[0][pipe.d_r:] *= 8.0
        x = np.concatenate(
            [h, np.zeros((32, pipe.decoder.in_dim - pipe.d_r))], axis=1)
        logits, _ = numkit.mlp_apply(pipe.decoder, x)
        gap = (np.delete(logits, EOS_ID, axis=1).max(axis=1)
               - logits[:, EOS_ID])
        pipe.decoder.biases[-1][EOS_ID] += np.quantile(gap, 0.1)
        got = decode_summary(h, pipe)
        np.testing.assert_array_equal(got, _oracle_decode(h, pipe))
        ends |= {int(np.argmax(r == EOS_ID)) for r in got if EOS_ID in r}
    assert 0 in ends and len(ends) >= 3   # first-step and mid-sequence ends


def test_pipeline_needs_hidden_decoder_layer(rng):
    pipe, vocab = _pipeline()
    with pytest.raises(ShapeError):
        ReconPipeline(recon_head=pipe.recon_head,
                      decoder=numkit.mlp_init(
                          [pipe.d_r + SUMMARY_LEN * len(vocab), len(vocab)],
                          rng),
                      vocab=vocab, d_r=pipe.d_r)


def test_recon_loss_untrained_near_uniform(rng):
    # a freshly seeded decoder is near-uniform, so teacher-forced CE sits
    # near SUMMARY_LEN * log(vocab)
    pipe, vocab = _pipeline()
    h = rng.normal(size=(8, 6))
    targets = rng.integers(0, len(vocab), size=(8, SUMMARY_LEN))
    loss, _, _ = recon_loss(h, targets, pipe)
    assert abs(loss - SUMMARY_LEN * np.log(len(vocab))) < 1.0


def test_recon_loss_target_validation(rng):
    pipe, vocab = _pipeline()
    h = rng.normal(size=(2, 6))
    with pytest.raises(InputError):
        recon_loss(h, np.zeros((2, 5), dtype=np.int64), pipe)
    bad = np.zeros((2, SUMMARY_LEN), dtype=np.int64)
    bad[0, 0] = len(vocab)
    with pytest.raises(InputError):
        recon_loss(h, bad, pipe)


def test_recon_grad_h_finite_difference(rng):
    pipe, vocab = _pipeline()
    h = rng.normal(size=(4, 6))
    targets = rng.integers(0, len(vocab), size=(4, SUMMARY_LEN))
    _, g_h, _ = recon_loss(h, targets, pipe)
    eps = 1e-5
    for _ in range(25):
        idx = (int(rng.integers(4)), int(rng.integers(6)))
        up, dn = h.copy(), h.copy()
        up[idx] += eps
        dn[idx] -= eps
        fd = (recon_loss(up, targets, pipe)[0]
              - recon_loss(dn, targets, pipe)[0]) / (2 * eps)
        assert abs(fd - g_h[idx]) / max(abs(fd), abs(g_h[idx]), 1.0) < 1e-5


def test_recon_decoder_grads_finite_difference(rng):
    pipe, vocab = _pipeline()
    h = rng.normal(size=(3, 6))
    targets = rng.integers(0, len(vocab), size=(3, SUMMARY_LEN))

    def loss_and_grad():
        loss, _, dec = recon_loss(h, targets, pipe)
        return loss, dec

    params = pipe.decoder.flat()
    _, dec_grads = loss_and_grad()
    eps = 1e-5
    for p_i, (p, g) in enumerate(zip(params, dec_grads)):
        for _ in range(8):
            idx = tuple(int(rng.integers(s)) for s in p.shape)
            orig = p[idx]
            p[idx] = orig + eps
            up = recon_loss(h, targets, pipe)[0]
            p[idx] = orig - eps
            dn = recon_loss(h, targets, pipe)[0]
            p[idx] = orig
            fd = (up - dn) / (2 * eps)
            assert abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1.0) < 1e-4


def test_recon_state_grad_path(rng):
    # recon_state + mlp_grad recover an exact gradient w.r.t. the logits
    pipe, vocab = _pipeline()
    logits = rng.normal(size=(3, 2, 4))
    emb = rng.normal(size=(3, 5))
    targets = rng.integers(0, len(vocab), size=(3, SUMMARY_LEN))

    def full_loss(lg):
        h, _ = recon_state(lg, emb, pipe)
        return recon_loss(h, targets, pipe)[0]

    h, cache = recon_state(logits, emb, pipe)
    _, g_h, _ = recon_loss(h, targets, pipe)
    _, g_in = numkit.mlp_grad(pipe.recon_head, cache, g_h)
    g_logits = g_in[:, :8].reshape(3, 2, 4)
    eps = 1e-5
    for _ in range(15):
        idx = tuple(int(rng.integers(s)) for s in logits.shape)
        up, dn = logits.copy(), logits.copy()
        up[idx] += eps
        dn[idx] -= eps
        fd = (full_loss(up) - full_loss(dn)) / (2 * eps)
        assert abs(fd - g_logits[idx]) / max(abs(fd), abs(g_logits[idx]),
                                             1.0) < 1e-5


def test_decode_summary_shape_and_eos_padding(rng):
    pipe, _ = _pipeline()
    out = decode_summary(rng.normal(size=(5, 6)), pipe)
    assert out.shape == (5, SUMMARY_LEN)
    for row in out:
        hits = np.flatnonzero(row == EOS_ID)
        if len(hits):
            assert np.all(row[hits[0]:] == EOS_ID)


def test_decoder_memorizes_single_summary(small_catalog, rng):
    # gradient descent on one fixed conditioning vector must drive the
    # greedy decode to reproduce the target summary exactly
    pipe, vocab = _pipeline(seed=3)
    tree = small_catalog.tree
    target = summarize(small_catalog.labels[0], tree,
                       build_vocab(tree))[None, :]
    h = rng.normal(size=(1, 6))
    store = numkit.ParamStore([pipe.decoder], lr=0.05)
    for _ in range(150):
        loss, _, dec = recon_loss(h, target, pipe)
        store.step(dec)
    np.testing.assert_array_equal(decode_summary(h, pipe)[0], target[0])
