"""Tests for the evaluation suite: V-measure, sequences, beam search,
hit rate, retrieval recall, and report serialization.

The per-sequence, per-beam and per-query loops that the batched kernels
replaced are kept here as oracles (`_oracle_*`)."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sidforge import evalsuite, numkit
from sidforge.errors import ConfigurationError, InputError, NumericError
from sidforge.evalsuite import (EvalReport, NextSidConfig, beam_decode,
                                gen_user_sequences, hr_at_k, init_next_sid,
                                load_report, make_contingency,
                                retrieval_recall, sid_level_vmeasure,
                                train_next_sid, v_measure)
from sidforge.unisid import SidTable
from testkit import (finite_diff_check, history_vectors, log_softmax,
                     next_sid_loss_grads, prefix_onehot)


def test_v_measure_identities():
    assert v_measure([0, 0, 1, 1], [5, 5, 9, 9]) == (1.0, 1.0, 1.0)
    h, c, v = v_measure([0, 0, 0, 0], [0, 0, 1, 1])
    assert h == 0.0 and c == 1.0 and v == 0.0
    h, c, v = v_measure([0, 1, 2, 3], [0, 0, 1, 1])
    assert h == 1.0 and c < 1.0
    # invariant under relabeling of either side
    assert v_measure([0, 0, 1, 2], ["a", "a", "b", "b"]) == \
        v_measure([7, 7, 3, 5], [1, 1, 0, 0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1,
                max_size=40),
       st.permutations(range(6)), st.permutations(range(6)))
def test_v_measure_invariant_under_relabelling(pairs, cmap, lmap):
    # renaming clusters and labels by any bijection, even into another
    # type, only permutes the contingency table's rows and columns; the
    # entropy sums may then add in another order, hence the tolerance
    clusters, labels = zip(*pairs)
    renamed = v_measure([f"c{cmap[c]}" for c in clusters],
                        [lmap[l] for l in labels])
    assert renamed == pytest.approx(v_measure(clusters, labels),
                                    rel=1e-12, abs=1e-12)


def test_v_measure_matches_sklearn(rng):
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    for _ in range(25):
        n = int(rng.integers(5, 60))
        cl = rng.integers(0, int(rng.integers(2, 8)), size=n)
        la = rng.integers(0, int(rng.integers(2, 8)), size=n)
        h, c, v = v_measure(cl.tolist(), la.tolist())
        hs, cs, vs = sklearn_metrics.homogeneity_completeness_v_measure(
            la, cl)
        assert abs(h - hs) < 1e-9 and abs(c - cs) < 1e-9 and abs(v - vs) < 1e-9


def test_make_contingency_errors():
    with pytest.raises(InputError):
        make_contingency([], [])
    with pytest.raises(InputError):
        make_contingency([0, 1], [0])
    counts = make_contingency([0, 0, 1], ["a", "b", "b"])
    assert counts.dtype == np.int64
    assert counts.tolist() == [[1, 1], [0, 1]]


def test_sid_level_vmeasure_label_aligned(small_catalog):
    table = SidTable(small_catalog.labels, 8)  # leaves 0..7
    assert np.isclose(sid_level_vmeasure(table, small_catalog, 3), 1.0)
    v1 = sid_level_vmeasure(table, small_catalog, 1)
    assert 0.0 < v1 < 1.0  # coarse prefix: complete but not homogeneous
    # one SID per catalog item, no fewer and no more
    for n in (1, len(small_catalog.items) - 1, len(small_catalog.items) + 1):
        with pytest.raises(InputError, match="SIDs for 64 catalog items"):
            sid_level_vmeasure(SidTable(np.zeros((n, 3), dtype=int), 1),
                               small_catalog, 1)


def test_gen_user_sequences_properties(small_catalog):
    seqs = gen_user_sequences(small_catalog, n_users=20, T=10, seed=4)
    again = gen_user_sequences(small_catalog, n_users=20, T=10, seed=4)
    assert np.array_equal(seqs, again)
    other = gen_user_sequences(small_catalog, n_users=20, T=10, seed=5)
    assert not np.array_equal(seqs, other)
    assert gen_user_sequences(small_catalog, n_users=0, T=10,
                              seed=4).shape == (0, 10)
    for bad_T in (1, len(small_catalog.items)):
        with pytest.raises(ConfigurationError):
            gen_user_sequences(small_catalog, 2, T=bad_T)
    # at preference=1 every touched item lies in the user's two subtrees
    pure = gen_user_sequences(small_catalog, 10, T=10, seed=4,
                              preference=1.0)
    for row in pure:
        assert len(set(small_catalog.labels[row, 1])) <= 2


def test_gen_user_sequences_read_only_int64_array(medium_catalog):
    # one (n_users, T) array, history columns then the target column;
    # read-only, so a caller's slice of it cannot edit another's users
    seqs = gen_user_sequences(medium_catalog, 50, T=7, seed=2)
    assert type(seqs) is np.ndarray
    assert seqs.shape == (50, 7) and seqs.dtype == np.int64
    assert not seqs.flags.writeable
    with pytest.raises(ValueError):
        seqs[0, 0] = 1
    assert seqs.tolist() == _oracle_user_sequences(medium_catalog, 50, 7,
                                                   2, 0.8)


@pytest.mark.parametrize("field, value", [
    # a None seed would draw from OS entropy
    ("seed", None), ("seed", True), ("seed", -1), ("seed", 1.5),
    ("n_users", -1), ("n_users", 2.5), ("n_users", None),
    ("T", 2.5), ("T", True),
    ("preference", -0.1), ("preference", 1.5), ("preference", float("nan")),
    ("preference", "0.8"), ("preference", True)])
def test_gen_user_sequences_rejects_bad_args(small_catalog, field, value):
    args = {"n_users": 3, "T": 5, "seed": 0, "preference": 0.8}
    args[field] = value
    with pytest.raises(ConfigurationError, match=field):
        gen_user_sequences(small_catalog, **args)


def _drawn_prefs(catalog, n_users, seed):
    """Each user's two preferred level-2 nodes: the first draw of
    `gen_user_sequences`' stream."""
    b1, b2, _ = catalog.spec.branching
    u = np.random.default_rng(seed).random((n_users, b1 * b2))
    return np.argsort(u, axis=1)[:, :2]


def _oracle_user_sequences(catalog, n_users, T, seed, preference):
    """The documented draws of `gen_user_sequences`, composed one item at
    a time: a preferred node's item when the coin falls under
    `preference`, else the uniform item."""
    b1, b2, _ = catalog.spec.branching
    nodes = [np.flatnonzero(catalog.labels[:, 1] == c).tolist()
             for c in range(b1 * b2)]
    rng = np.random.default_rng(seed)
    prefs = np.argsort(rng.random((n_users, b1 * b2)), axis=1)[:, :2]
    which = rng.integers(2, size=(n_users, T))
    node_of = [[int(prefs[u, which[u, t]]) for t in range(T)]
               for u in range(n_users)]
    inside = rng.integers([[len(nodes[c]) for c in row] for row in node_of])
    uniform = rng.integers(len(catalog.items), size=(n_users, T))
    coin = rng.random((n_users, T))
    return [[nodes[node_of[u][t]][inside[u, t]]
             if coin[u, t] < preference else int(uniform[u, t])
             for t in range(T)] for u in range(n_users)]


@pytest.mark.parametrize("T, seed, preference", [
    (2, 0, 0.8), (10, 3, 0.8), (10, 4, 0.0), (7, 5, 1.0), (20, 6, 0.5)])
def test_gen_user_sequences_matches_oracle(small_catalog, medium_catalog,
                                           T, seed, preference):
    for cat in (small_catalog, medium_catalog):
        got = gen_user_sequences(cat, 300, T=T, seed=seed,
                                 preference=preference)
        assert got.tolist() == _oracle_user_sequences(cat, 300, T, seed,
                                                      preference)


def test_gen_user_sequences_statistics(small_catalog):
    # seeded, 20,000 users; each bound leaves a chance below 1e-4 to a
    # correct draw
    cat, n, T, p = small_catalog, 20000, 10, 0.8
    n_l2 = cat.spec.branching[0] * cat.spec.branching[1]
    items = gen_user_sequences(cat, n, T=T, seed=8, preference=p)
    prefs = _drawn_prefs(cat, n, seed=8)
    assert (prefs[:, 0] != prefs[:, 1]).all()
    node = cat.labels[items, 1]
    outside = (node != prefs[:, :1]) & (node != prefs[:, 1:])
    # each preferred node holds half the preferred draws; all level-2
    # nodes of this catalog hold the same number of items
    for share, hits in (((1 - p) * (1 - 2 / n_l2), outside),
                        (p / 2 + (1 - p) / n_l2, node == prefs[:, :1]),
                        (p / 2 + (1 - p) / n_l2, node == prefs[:, 1:])):
        se = np.sqrt(share * (1 - share) / hits.size)
        assert abs(hits.mean() - share) < 4 * se
    # the targets are independent across users; each lands in node c
    # with chance p / n_l2 + (1 - p) * size(c) / n_items
    size = np.bincount(cat.labels[:, 1], minlength=n_l2)
    expected = n * (p / n_l2 + (1 - p) * size / len(cat.items))
    counts = np.bincount(node[:, -1], minlength=n_l2)
    # 30.66 is the 1 - 1e-6 quantile of chi-square with 3 degrees of
    # freedom
    assert np.sum((counts - expected) ** 2 / expected) < 30.66
    # at preference 0 every item is an independent uniform draw; 131.37
    # is the 1 - 1e-6 quantile of chi-square with 63 degrees of freedom
    flat = gen_user_sequences(cat, 2000, T=T, seed=9, preference=0.0).ravel()
    counts = np.bincount(flat, minlength=len(cat.items))
    expected = flat.size / len(cat.items)
    assert np.sum((counts - expected) ** 2 / expected) < 131.37


CFG = NextSidConfig(L=2, K=4, d_s=6, hidden=8, history=3, seed=2)


def _toy_setup(rng):
    """A 10-item SID table and 6 sequences of 4 history items and a
    target: more history than CFG's window of 3."""
    sids = [(int(rng.integers(4)), int(rng.integers(4))) for _ in range(10)]
    return SidTable(sids, 4), rng.integers(10, size=(6, 5))


def _oracle_history_vectors(model, sequences, sid_table):
    c = model.config
    offsets = np.arange(c.L) * c.K
    hist_vecs = np.empty((len(sequences), c.d_s))
    used_rows = []
    for i, seq in enumerate(sequences):
        tail = [int(v) for v in seq[:-1]][-c.history:]
        rows = []
        for item in tail:
            rows.append(offsets + sid_table.tokens[item])
        rows = np.stack(rows)  # (h, L)
        hist_vecs[i] = model.table[rows.reshape(-1)].reshape(
            len(tail), c.L, c.d_s).sum(axis=1).mean(axis=0)
        used_rows.append(rows)
    return hist_vecs, used_rows


def _oracle_next_sid_loss_grads(model, sequences, sid_table):
    c = model.config
    n = len(sequences)
    hist, used_rows = _oracle_history_vectors(model, sequences, sid_table)
    targets = np.array([sid_table.tokens[int(s[-1])] for s in sequences],
                       dtype=np.int64)
    loss = 0.0
    g_hist = np.zeros_like(hist)
    scorer_grads = []
    for lvl in range(c.L):
        prefix = np.zeros((n, lvl * c.K))
        for j in range(lvl):
            prefix[np.arange(n), j * c.K + targets[:, j]] = 1.0
        x = np.concatenate([hist, prefix], axis=1)
        logits, cache = numkit.mlp_apply(model.scorers[lvl], x)
        m = logits.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
        tok = targets[:, lvl]
        loss += float(np.mean(lse - logits[np.arange(n), tok]))
        soft = np.exp(logits - m)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[np.arange(n), tok] -= 1.0
        grads, gx = numkit.mlp_grad(model.scorers[lvl], cache, soft / n)
        scorer_grads.append(grads)
        g_hist += gx[:, :c.d_s]
    g_table = np.zeros_like(model.table)
    for i, rows in enumerate(used_rows):
        np.add.at(g_table, rows.reshape(-1),
                  np.repeat(g_hist[i][None, :] / rows.shape[0],
                            rows.size, axis=0))
    return loss, g_table, scorer_grads


def _oracle_beam_decode(model, hist_vec, beam_width):
    c = model.config
    beams = [(0.0, ())]
    for lvl in range(c.L):
        expanded = []
        for score, prefix in beams:
            x = np.concatenate([hist_vec,
                                prefix_onehot(prefix, lvl, c.K)])[None, :]
            logp = log_softmax(numkit.mlp_apply(model.scorers[lvl], x)[0][0])
            for k in range(c.K):
                expanded.append((score + float(logp[k]), prefix + (k,)))
        expanded.sort(key=lambda t: (-t[0], t[1]))
        beams = expanded[:beam_width]
    return beams


def _sequence_setup(seed, L, K, T, n_items=30, n_seqs=40):
    """A random SID table and an (n_seqs, T) array of sequences: T - 1
    history items, then the target."""
    r = np.random.default_rng(seed)
    sids = [[int(t) for t in r.integers(K, size=L)] for _ in range(n_items)]
    return SidTable(sids, K), r.integers(n_items, size=(n_seqs, T))


def _lengths_around(H):
    """Sequence lengths T whose T - 1 history items fall below, at and
    above a history window of H items."""
    return (H, H + 1, H + 3)


def test_untrained_next_sid_loss_is_log_k(rng):
    sid_table, seqs = _toy_setup(rng)
    model = init_next_sid(CFG)
    loss, _, _ = next_sid_loss_grads(model, seqs, sid_table)
    assert np.isclose(loss, CFG.L * np.log(CFG.K))


def test_history_vectors_mean_of_sums(rng):
    sid_table, seqs = _toy_setup(rng)
    model = init_next_sid(CFG)
    hist = history_vectors(model, seqs, sid_table)
    tail = seqs[0, -1 - CFG.history:-1].tolist()
    want = np.mean([sum(model.table[lvl * CFG.K + sid_table.tokens[i, lvl]]
                        for lvl in range(CFG.L)) for i in tail], axis=0)
    np.testing.assert_allclose(hist[0], want)


def test_next_sid_grads_finite_difference(rng):
    sid_table, seqs = _toy_setup(rng)
    model = init_next_sid(CFG)
    # break the zero-init symmetry so gradients are generic
    r = np.random.default_rng(7)
    for s in model.scorers:
        s.weights[-1] = 0.1 * r.normal(size=s.weights[-1].shape)

    def loss_and_grad(params):
        model.table = params[0]
        k = 1
        for s in model.scorers:
            cnt = len(s.flat())
            s.set_flat(params[k:k + cnt])
            k += cnt
        loss, g_table, scorer_grads = next_sid_loss_grads(model, seqs,
                                                          sid_table)
        return loss, [g_table] + [g for gs in scorer_grads for g in gs]

    params = [model.table.astype(np.float64)] + [
        p.astype(np.float64) for s in model.scorers for p in s.flat()]
    report = finite_diff_check(loss_and_grad, params, h=1e-5,
                               tolerance=1e-5,
                               max_coords_per_param=12, rng=rng)
    assert report.passed, report


def test_beam_decode_matches_exhaustive(rng):
    sid_table, seqs = _toy_setup(rng)
    model = train_next_sid(seqs, sid_table,
                           NextSidConfig(L=2, K=4, d_s=6, hidden=8,
                                         history=3, epochs=5, seed=2))
    hist = history_vectors(model, seqs, sid_table)
    beams = beam_decode(model, hist[0], beam_width=16)
    # independent exhaustive scorer over all K^L sequences
    from itertools import product
    scored = []
    for seq in product(range(4), repeat=2):
        total = 0.0
        for lvl in range(2):
            x = np.concatenate([hist[0],
                                prefix_onehot(seq[:lvl], lvl, 4)])[None, :]
            lp = log_softmax(numkit.mlp_apply(model.scorers[lvl], x)[0][0])
            total += float(lp[seq[lvl]])
        scored.append((total, seq))
    scored.sort(key=lambda t: (-t[0], t[1]))
    assert [s for _, s in beams] == [s for _, s in scored]
    np.testing.assert_allclose([v for v, _ in beams],
                               [v for v, _ in scored])


def test_beam_ties_lexicographic(rng):
    sid_table, seqs = _toy_setup(rng)
    model = init_next_sid(CFG)  # zero-init scorers: all scores tie
    hist = history_vectors(model, seqs, sid_table)
    beams = beam_decode(model, hist[0], beam_width=5)
    assert [s for _, s in beams] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]


def test_history_vectors_and_grads_match_loop():
    for seed, T in enumerate(_lengths_around(4)):
        cfg = NextSidConfig(L=3, K=5, d_s=6, hidden=8, history=4, seed=seed)
        sid_table, seqs = _sequence_setup(seed, cfg.L, cfg.K, T)
        model = init_next_sid(cfg)
        r = np.random.default_rng(seed)
        for s in model.scorers:  # generic, nonzero gradients
            s.weights[-1] = 0.1 * r.normal(size=s.weights[-1].shape)
        hist = history_vectors(model, seqs, sid_table)
        want_hist, _ = _oracle_history_vectors(model, seqs, sid_table)
        assert np.array_equal(hist, want_hist)
        loss, g_table, scorer_grads = next_sid_loss_grads(model, seqs,
                                                          sid_table)
        want = _oracle_next_sid_loss_grads(model, seqs, sid_table)
        assert loss == want[0]
        assert np.array_equal(g_table, want[1])
        for got_g, want_g in zip(scorer_grads, want[2]):
            assert all(np.array_equal(a, b) for a, b in zip(got_g, want_g))


def _oracle_train_next_sid(sequences, sid_table, config):
    """The per-batch loop that `train_next_sid` replaced: lists of
    sequences into the list-based loss with its np.add.at scatter."""
    model = init_next_sid(config)
    store = numkit.ParamStore(model.scorers, config.lr, extra=[model.table])
    model.table = store.extra[0]
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        perm = rng.permutation(len(sequences))
        for start in range(0, len(sequences), config.batch_size):
            batch = sequences[perm[start:start + config.batch_size]]
            _, g_table, scorer_grads = _oracle_next_sid_loss_grads(
                model, batch, sid_table)
            store.step([g_table] + [g for gs in scorer_grads for g in gs])
    return model


def _trained_next_sid_digest(L, K):
    """SHA-256 of a seeded model's trained table and scorer bytes; 25
    sequences in batches of 8 leave a last batch of one sequence.  Their
    L + 2 history items fall below (L = 1), at (L = 2) and above the
    window of 4."""
    cfg = NextSidConfig(L=L, K=K, d_s=6, hidden=8, history=4, epochs=3,
                        batch_size=8, seed=L + K)
    sid_table, seqs = _sequence_setup(10 * L + K, L, K, L + 3, n_seqs=25)
    model = train_next_sid(seqs, sid_table, cfg)
    h = hashlib.sha256(model.table.astype("<f8").tobytes())
    for s in model.scorers:
        for p in s.flat():
            h.update(p.astype("<f8").tobytes())
    return h.hexdigest()


# recorded from the per-sequence list code (`UserSequence` histories,
# per-sequence tail counts) on these fixed-length inputs; its digests on
# ragged histories had been checked against the step that built a zeroed
# prefix and concatenated it to the history vector at every level, with
# two exps per level: the array form must train the same bits
GOLDEN_NEXT_SID_SHA256 = {
    (1, 1): "6c8410e19ce62b49be04905f0b6b1948d8b838f767ff84ccab8a362454744afd",
    (1, 5): "b05602bb523495a3ee411480fd493ebc84522bf7684eaa584b25af0cb499bffe",
    (1, 16): "24a60049e29fa33a2e9815596c1678a1b88b4ad212629f38757018a39bd72370",
    (2, 1): "7b074af94da6616a32dd3dbb99db4339c61272ac488e7c183974ecf05ec7c2a4",
    (2, 5): "adf71de70cd995833bde7cfe77eb803f7e757b961f136346355217ed95552755",
    (2, 16): "6ab09ebea300a4ca0e524785e490f4ff9823353eae818973c90d8060420c970b",
    (3, 1): "6ac43d6e75565095f833b2bd427b23a502f240b37df68abddaf0ab7036efeb91",
    (3, 5): "8d6564d71cc95877630824f2208e66d2087c22c3e29a761d1b5df2af8437c362",
    (3, 16): "409d1725b0322822935f977f9cf2e43cdc92f0d117c1cf53d31567cc18a3df3a",
    (4, 1): "1f2dc4d2e2ab456b00e9a5b846bd8f41c0c1fbaf36cf5e79ceb1f2d7b7a2f0b8",
    (4, 5): "07f2f4a1b9bcdf72a19dfbb49eb110dcdde176f362eea4549a7e696ae864c349",
    (4, 16): "1720b4b972ae9ed879531e2c39c2d5433c7223023ecf6643a54b8045fdde6ca5",
}


@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize("K", [1, 5, 16])
def test_train_next_sid_golden_bits(L, K):
    assert _trained_next_sid_digest(L, K) == GOLDEN_NEXT_SID_SHA256[L, K]


def test_train_next_sid_matches_batch_loop(monkeypatch):
    # every step's gradients too: the float32 rounding of the parameters
    # can hide a last-bit difference in one of them
    steps = []
    step = numkit.ParamStore.step

    def recorded(self, grads):
        steps.append([g.copy() for g in grads])
        return step(self, grads)

    monkeypatch.setattr(numkit.ParamStore, "step", recorded)
    # tails of each length, and batches that do not divide the sequence
    # count
    for seed, T in enumerate(_lengths_around(4)):
        cfg = NextSidConfig(L=3, K=5, d_s=6, hidden=8, history=4, epochs=3,
                            batch_size=7, seed=seed)
        sid_table, seqs = _sequence_setup(seed, cfg.L, cfg.K, T)
        got = train_next_sid(seqs, sid_table, cfg)
        got_steps, steps[:] = steps[:], []
        want = _oracle_train_next_sid(seqs, sid_table, cfg)
        assert len(got_steps) == len(steps) == 3 * 6
        for g, w in zip(got_steps, steps):
            assert all(np.array_equal(a, b) for a, b in zip(g, w))
        steps.clear()
        assert np.array_equal(got.table, want.table)
        for g, w in zip(got.scorers, want.scorers):
            assert all(np.array_equal(a, b)
                       for a, b in zip(g.flat(), w.flat()))


def test_table_scatter_with_shared_rows():
    # every sequence lands on the same few table rows, many times each
    cfg = NextSidConfig(L=2, K=2, d_s=5, hidden=6, history=6, seed=1)
    sid_table = SidTable([(i % 2, 0) for i in range(6)], 2)
    r = np.random.default_rng(3)
    seqs = r.integers(6, size=(50, 10))
    model = init_next_sid(cfg)
    for s in model.scorers:  # generic, nonzero gradients
        s.weights[-1] = 0.1 * r.normal(size=s.weights[-1].shape)
    _, g_table, _ = next_sid_loss_grads(model, seqs, sid_table)
    want = _oracle_next_sid_loss_grads(model, seqs, sid_table)[1]
    assert np.array_equal(g_table, want)
    assert np.count_nonzero(np.abs(g_table).sum(axis=1)) == 3


def _oracle_batched_beam_decode(model, hist_vec, beam_width):
    """The batched search before the full-width input buffer: per level
    a new one-hot block and token column are concatenated, and every
    level sorts."""
    c = model.config
    scores = np.zeros(1)
    tokens = np.zeros((1, 0), dtype=np.int64)
    x = np.asarray(hist_vec, dtype=np.float64)[None, :]
    for lvl in range(c.L):
        logits = numkit.mlp_apply(model.scorers[lvl], x)[0]
        m = logits.max(axis=-1, keepdims=True)
        logp = logits - m - np.log(np.exp(logits - m).sum(axis=-1,
                                                          keepdims=True))
        total = (scores[:, None] + logp).reshape(-1)
        keep = np.argsort(-total, kind="stable")[:beam_width]
        if lvl + 1 < c.L:
            keep.sort()
        parent, tok = np.divmod(keep, c.K)
        scores = total[keep]
        tokens = np.concatenate([tokens[parent], tok[:, None]], axis=1)
        onehot = np.zeros((len(keep), c.K))
        onehot[np.arange(len(keep)), tok] = 1.0
        x = np.concatenate([x[parent], onehot], axis=1)
    return [(s, tuple(p)) for s, p in zip(scores.tolist(), tokens.tolist())]


def _oracle_hr_at_k(model, test_sequences, sid_table, k_list, beam_width):
    """One slice scan of the decoded list per user and K."""
    hits = {k: 0 for k in k_list}
    hist = history_vectors(model, test_sequences, sid_table)
    for i, seq in enumerate(test_sequences):
        truth = tuple(sid_table.tokens[int(seq[-1])].tolist())
        decoded = [s for _, s in _oracle_batched_beam_decode(
            model, hist[i], beam_width)]
        for k in k_list:
            if truth in decoded[:k]:
                hits[k] += 1
    return {k: hits[k] / len(test_sequences) for k in k_list}


def _next_sid_models(cfg, seqs, sid_table, seed):
    """An untrained model, whose scores all tie, and a trained one."""
    return [init_next_sid(cfg),
            train_next_sid(seqs, sid_table,
                           dataclasses.replace(cfg, seed=seed))]


def test_beam_decode_matches_loop():
    # widths 1, < K, K, between K and K^2, K^L and beyond
    for L, K in ((2, 4), (3, 4), (2, 16), (3, 16)):
        cfg = NextSidConfig(L=L, K=K, d_s=8, hidden=16, history=3,
                            epochs=3, batch_size=16)
        for seed, T in enumerate(_lengths_around(3)):
            sid_table, seqs = _sequence_setup(seed, L, K, T)
            for model in _next_sid_models(cfg, seqs, sid_table, seed):
                hist = history_vectors(model, seqs[:6], sid_table)
                for h in hist:
                    for width in (1, K - 1, K, K + 3, K ** L, K ** L + 5):
                        got = beam_decode(model, h, width)
                        assert got == _oracle_batched_beam_decode(model, h,
                                                                  width)
                        want = _oracle_beam_decode(model, h, width)
                        assert [t for _, t in got] == [t for _, t in want]
                        np.testing.assert_allclose(
                            [v for v, _ in got], [v for v, _ in want],
                            rtol=1e-12, atol=1e-12)
                        assert len(got) == min(width, K ** L)
                        assert type(got) is list and all(
                            type(v) is float and type(t) is tuple
                            and all(type(x) is int for x in t)
                            for v, t in got)


@pytest.mark.parametrize("L, K", [(2, 4), (3, 16)])
def test_hr_at_k_matches_slice_counting(L, K):
    cfg = NextSidConfig(L=L, K=K, d_s=8, hidden=16, history=3, epochs=3,
                        batch_size=16)
    for seed, T in enumerate(_lengths_around(3)):
        sid_table, seqs = _sequence_setup(seed, L, K, T)
        for model in _next_sid_models(cfg, seqs, sid_table, seed):
            for width in (K, K + 3, K ** L):
                k_list = sorted({1, min(5, width), width})
                got = hr_at_k(model, seqs[:12], sid_table, k_list,
                              beam_width=width)
                assert got == _oracle_hr_at_k(model, seqs[:12], sid_table,
                                              k_list, width)


@pytest.mark.parametrize("L, K, history", [(1, 4, 3), (1, 16, 9),
                                           (2, 4, 9), (3, 4, 12)])
def test_beam_decode_matches_loop_edge_shapes(L, K, history):
    # L = 1: level 0 is the last level, so every width up to K must still
    # sort; history windows longer than 8, and histories shorter than,
    # equal to and longer than the window
    cfg = NextSidConfig(L=L, K=K, d_s=8, hidden=16, history=history,
                        epochs=3, batch_size=8)
    for seed, T in enumerate(_lengths_around(history)):
        sid_table, seqs = _sequence_setup(seed, L, K, T, n_seqs=24)
        for model in _next_sid_models(cfg, seqs, sid_table, seed):
            want_hist, _ = _oracle_history_vectors(model, seqs, sid_table)
            assert np.array_equal(
                history_vectors(model, seqs, sid_table), want_hist)
            for seq, want_h in zip(seqs[:8], want_hist):
                h = history_vectors(model, [seq], sid_table)
                assert np.array_equal(h, want_h[None, :])
                for width in sorted({1, K - 1, K, K + 3, K ** L,
                                     K ** L + 5} - {0}):
                    got = beam_decode(model, h[0], width)
                    assert got == _oracle_batched_beam_decode(model, h[0],
                                                              width)
                    want = _oracle_beam_decode(model, h[0], width)
                    assert [t for _, t in got] == [t for _, t in want]
                    assert len(got) == min(width, K ** L)


def test_single_query_history_bits_off_the_float32_grid():
    # trained tables sit on the float32 grid, where any summation order
    # gives the same bits; off it, a served query must still sum its
    # history as the batched path does, or its beams can differ from a
    # batch hr_at_k over the same users
    cfg = NextSidConfig(L=3, K=16, d_s=8, hidden=16, history=6, epochs=2,
                        batch_size=16, seed=4)
    sid_table, seqs = _sequence_setup(4, cfg.L, cfg.K, 11, n_items=60,
                                      n_seqs=200)
    model = train_next_sid(seqs, sid_table, cfg)
    r = np.random.default_rng(4)
    model.table = model.table * (1.0 + 1e-3 * r.random(model.table.shape))
    assert not np.array_equal(model.table, numkit.quantize_f32(model.table))
    batched = history_vectors(model, seqs, sid_table)
    for seq, row in zip(seqs, batched):
        assert np.array_equal(history_vectors(model, [seq], sid_table)[0],
                              row)
    k_list = [1, 5, 10, 20]
    batch = hr_at_k(model, seqs, sid_table, k_list, beam_width=20)
    summed = {k: 0.0 for k in k_list}
    for seq in seqs:
        for k, v in hr_at_k(model, [seq], sid_table, k_list,
                            beam_width=20).items():
            summed[k] += v
    assert summed == {k: batch[k] * len(seqs) for k in k_list}


def test_beam_ties_across_beams_lexicographic():
    # level 1 ranks token 1 first; level 2 mirrors the level-1 log-probs
    # per prefix, so (0, 0) and (1, 0) tie exactly although their prefixes
    # ranked differently: lexicographic order must still decide
    c = 1.0
    model = init_next_sid(NextSidConfig(L=2, K=2, d_s=1, hidden=2))
    model.scorers[0].biases[-1] = np.array([0.0, c])
    s1 = model.scorers[1]
    s1.weights[0] = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    s1.biases[0] = np.zeros(2)
    s1.weights[1] = np.array([[c, 0.0], [0.0, c]])
    hist = np.zeros(1)
    beams = beam_decode(model, hist, beam_width=4)
    assert [t for _, t in beams] == [(1, 1), (0, 0), (1, 0), (0, 1)]
    assert beams[1][0] == beams[2][0]
    assert beams == _oracle_beam_decode(model, hist, 4)


def test_beam_ties_after_a_pruned_level_lexicographic():
    # level 1 keeps (0, 1) above (0, 0) by score; level 2 mirrors the
    # level-1 log-probs, so (0, 0, 0) and (0, 1, 0) tie exactly.  Only
    # re-sorting the kept level-1 beams into token order puts (0, 0, 0)
    # first.  Level 0 is certain (log-prob 0.0 exactly for token 0), so
    # the tied totals are sums of the same two numbers
    c = 1.0
    model = init_next_sid(NextSidConfig(L=3, K=2, d_s=1, hidden=2))
    model.scorers[0].biases[-1] = np.array([0.0, -1000.0])
    model.scorers[1].biases[-1] = np.array([0.0, c])
    s2 = model.scorers[2]
    s2.weights[0] = np.zeros((5, 2))
    s2.weights[0][3:] = np.eye(2)  # the level-1 token's one-hot block
    s2.biases[0] = np.zeros(2)
    s2.weights[1] = np.array([[c, 0.0], [0.0, c]])
    hist = np.zeros(1)
    beams = beam_decode(model, hist, beam_width=2)
    assert [t for _, t in beams] == [(0, 1, 1), (0, 0, 0)]
    assert beams == _oracle_beam_decode(model, hist, 2)
    wide = beam_decode(model, hist, beam_width=3)
    assert [t for _, t in wide] == [(0, 1, 1), (0, 0, 0), (0, 1, 0)]
    assert wide[1][0] == wide[2][0]


def _tied_model(L, bonus=0.0):
    """K = 4; level 1 scores token 0 above three tied tokens, and level 2,
    whatever the prefix, scores token 0 half as far above three tied
    tokens, plus `bonus` after level-1 token 3; a third level scores all
    four alike."""
    model = init_next_sid(NextSidConfig(L=L, K=4, d_s=1, hidden=2))
    model.scorers[0].biases[-1] = np.array([2.0, 1.0, 1.0, 1.0])
    s1 = model.scorers[1]
    s1.weights[0] = np.zeros((5, 2))
    s1.weights[0][4, 0] = 1.0  # hidden unit 0 reads level-1 token 3
    s1.weights[1] = np.zeros((2, 4))
    s1.weights[1][0, 0] = bonus
    s1.biases[-1] = np.array([1.5, 1.0, 1.0, 1.0])
    return model


@pytest.mark.parametrize("L, width, bonus, want", [
    # level 1 keeps 0 and the first two of its three tied tokens; token 3
    # would have led level 2.  Level 2 again keeps 0 and the first two of
    # three ties inside beam 0
    (2, 3, 3.0, [(0, 0), (0, 1), (0, 2)]),
    # level 1 keeps all; at level 2 the first four are above the
    # threshold and three beams' token 0 tie for the last slot
    (2, 5, 0.0, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]),
    # the same cross-beam tie at a non-final level, then twelve tied
    # candidates of three tied beams for the last slot of the final one
    (3, 5, 0.0, [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 0)]),
])
def test_beam_threshold_ties_keep_lowest_flat_index(L, width, bonus, want):
    model = _tied_model(L, bonus)
    hist = np.zeros(1)
    beams = beam_decode(model, hist, width)
    assert [t for _, t in beams] == want
    assert beams == _oracle_beam_decode(model, hist, width)
    # some candidates score above the width-th total and more tie at it
    # than there are slots left
    everything = [v for v, _ in _oracle_beam_decode(model, hist, 4 ** L)]
    assert everything[0] > everything[width - 1] == everything[width]


def test_beam_decode_matches_argsort_on_integer_models():
    # integer weights, biases and history vectors make whole rows of
    # tied candidates, across beams too, at every level
    for seed in range(20):
        r = np.random.default_rng(seed)
        K, L = (3, 4)[seed % 2], 3
        model = init_next_sid(NextSidConfig(L=L, K=K, d_s=2, hidden=3))
        for m in model.scorers:
            m.weights = [r.integers(-1, 2, size=w.shape).astype(float)
                         for w in m.weights]
            m.biases = [r.integers(-1, 2, size=b.shape).astype(float)
                        for b in m.biases]
        hist = r.integers(-1, 2, size=2).astype(float)
        for width in range(K ** L + 2):
            got = beam_decode(model, hist, width)
            assert got == _oracle_batched_beam_decode(model, hist, width)
            want = _oracle_beam_decode(model, hist, width)
            assert [t for _, t in got] == [t for _, t in want]


# recorded from the per-sequence list code on these fixed-length inputs;
# its digest on ragged histories had been recorded from the decoder that
# sorted every level with one stable argsort: any change to beam_decode
# must keep each beam's score bits and tokens
GOLDEN_BEAMS_SHA256 = (
    "59d2ed0c127864b9abfbf9e6f124a080b8a0782bf75ed5a7c1d0add4fbe52048")


def test_beam_decode_golden_bits():
    cfg = NextSidConfig(L=3, K=16, d_s=8, hidden=16, history=3, epochs=3,
                        batch_size=16, seed=7)
    sid_table, seqs = _sequence_setup(7, cfg.L, cfg.K, 6, n_items=60,
                                      n_seqs=200)
    model = train_next_sid(seqs, sid_table, cfg)
    h = hashlib.sha256()
    for vec in history_vectors(model, seqs, sid_table):
        for width in (1, cfg.K - 1, cfg.K, cfg.K + 3, 20, cfg.K ** 2 + 1):
            beams = beam_decode(model, vec, width)
            h.update(np.array([width, len(beams)], dtype="<i8").tobytes())
            h.update(np.array([s for s, _ in beams], dtype="<f8").tobytes())
            h.update(np.array([t for _, t in beams], dtype="<i8").tobytes())
    assert h.hexdigest() == GOLDEN_BEAMS_SHA256


def test_beam_decode_call_structure(monkeypatch):
    # one beam_decode per user and one scorer call per level: the
    # benchmark's per-query clock and call ratio rely on both
    cfg = NextSidConfig(L=3, K=4, d_s=6, hidden=8, history=3, seed=1)
    sid_table, seqs = _sequence_setup(0, cfg.L, cfg.K, 5)
    model = init_next_sid(cfg)
    calls = {"decode": 0, "mlp": 0}
    decode, apply = evalsuite.beam_decode, numkit.mlp_apply

    def counted_decode(*a, **kw):
        calls["decode"] += 1
        return decode(*a, **kw)

    def counted_apply(*a, **kw):
        calls["mlp"] += 1
        return apply(*a, **kw)

    monkeypatch.setattr(evalsuite, "beam_decode", counted_decode)
    monkeypatch.setattr(numkit, "mlp_apply", counted_apply)
    hr_at_k(model, seqs[:7], sid_table, [1, 5], beam_width=20)
    assert calls == {"decode": 7, "mlp": 7 * cfg.L}


def test_beam_decode_rejects_non_finite_scores():
    cfg = NextSidConfig(L=2, K=4, d_s=6, hidden=8, history=3, seed=1)
    model = init_next_sid(cfg)
    model.scorers[1].biases[-1] = np.array([0.0, np.inf, 0.0, 0.0])
    with pytest.raises(NumericError, match="non-finite"):
        beam_decode(model, np.ones(cfg.d_s), 8)


def test_hr_at_k_degenerate_table(rng):
    # every item maps to the same SID, so the target is always the
    # lexicographically first decode: HR = 1 at every K
    _, seqs = _toy_setup(rng)
    sid_table = SidTable(np.zeros((10, 2), dtype=int), 4)
    model = init_next_sid(CFG)
    hr = hr_at_k(model, seqs, sid_table, [1, 3])
    assert hr == {1: 1.0, 3: 1.0}
    with pytest.raises(ConfigurationError):
        hr_at_k(model, seqs, sid_table, [1, 3], beam_width=2)
    # true is an int to Python, but not a K
    for k_list in ([], [0, 1], [1.5], [True, 3]):
        with pytest.raises(ConfigurationError, match="k_list"):
            hr_at_k(model, seqs, sid_table, k_list)


def test_hr_at_k_target_without_sid(rng):
    sid_table, seqs = _toy_setup(rng)
    seqs = np.vstack([seqs, [0, 1, 2, 3, 99]])
    with pytest.raises(InputError, match="item 99 has no SID"):
        hr_at_k(init_next_sid(CFG), seqs, sid_table, [1, 3])


def test_hr_at_k_no_test_sequences(rng):
    sid_table, _ = _toy_setup(rng)
    with pytest.raises(InputError, match="no test sequences"):
        hr_at_k(init_next_sid(CFG), np.empty((0, 5), dtype=np.int64),
                sid_table, [1, 3])


_NOT_AN_ARRAY = r"sequences must be an \(n, T\) integer array with T >= 2"


@pytest.mark.parametrize("seqs, message", [
    ([0, 1, 2], _NOT_AN_ARRAY),                     # 1-D
    ([[0], [1]], _NOT_AN_ARRAY),                    # T < 2
    ([[0.0, 1.0], [2.0, 3.0]], _NOT_AN_ARRAY),      # float
    ([[0, 1, 2], [3, 4]], _NOT_AN_ARRAY),           # rows of two lengths
    ([], _NOT_AN_ARRAY),
    ([[0, 1, 2], [99, 0, 1]], "item 99 has no SID"),  # a history item
    ([[0, 1, 2], [0, 1, 99]], "item 99 has no SID"),  # a target
    # a list holding one row array, as a served query passes
    ([np.array([0])], _NOT_AN_ARRAY),
    ([np.array([0.0, 1.0])], _NOT_AN_ARRAY),
    ([np.array([99, 0, 1])], "item 99 has no SID"),
    ([np.array([0, 1, 99])], "item 99 has no SID"),
    # the table's 10 items are ids 0..9: -1 would index its last row
    ([[0, 1, 2], [-1, 0, 1]], "item -1 has no SID"),
    ([[0, 1, 2], [0, 1, 10]], "item 10 has no SID"),
    ([np.array([-1, 0, 1])], "item -1 has no SID"),
    ([np.array([0, 1, 10])], "item 10 has no SID"),
    ([np.array([0, 1, 2 ** 64 - 1], dtype=np.uint64)],
     f"item {2 ** 64 - 1} has no SID"),
])
def test_next_sid_rejects_bad_sequences(rng, seqs, message):
    sid_table, _ = _toy_setup(rng)
    model = init_next_sid(CFG)
    calls = [lambda s: train_next_sid(s, sid_table, CFG),
             lambda s: next_sid_loss_grads(model, s, sid_table),
             lambda s: history_vectors(model, s, sid_table),
             lambda s: hr_at_k(model, s, sid_table, [1, 3])]
    for call in calls:
        with pytest.raises(InputError, match=message):
            call(seqs)


def _next_sid_calls(model, table, seqs):
    """Each way a table reaches the next-SID path: training and Hit Rate
    over the sequence array, and over one row array (history 2, 3, 4
    and target 9)."""
    row = np.array([1, 2, 3, 4, 9])
    return (lambda: train_next_sid(seqs, table, CFG),
            lambda: train_next_sid([row], table, CFG),
            lambda: hr_at_k(model, seqs, table, [1, 3]),
            lambda: hr_at_k(model, row[None], table, [1, 3]),
            lambda: hr_at_k(model, [row], table, [1, 3]))


@pytest.mark.parametrize("length", [3, 1])
def test_next_sid_rejects_sids_of_another_length(rng, length):
    # CFG.L = 2.  A table of another depth fails every call; a table
    # with only the target's SID of another length cannot be built
    # (tests/test_unisid.py)
    _, seqs = _toy_setup(rng)
    table = SidTable(np.zeros((10, length), dtype=np.int64), CFG.K)
    for call in _next_sid_calls(init_next_sid(CFG), table, seqs):
        with pytest.raises(InputError, match=re.escape(
                f"the SID table's (L, K) = ({length}, 4) must be the "
                "model's (2, 4)")):
            call()


@pytest.mark.parametrize("token", [4, 7, -1, 2 ** 63, 2 ** 64, 1.5, 1.0])
def test_next_sid_rejects_tokens_outside_the_codebook(rng, token):
    # CFG.K = 4.  A token of K or more once ended in a bare IndexError,
    # and a float token was truncated.  No table of K = 4 holds one, in
    # every SID or only the target's; a table of a K that does hold it
    # fails every call
    sid_table, seqs = _toy_setup(rng)
    sids = sid_table.tokens.tolist()
    for bad in ([[0, token]] * 10, sids[:9] + [[token, 0]]):
        with pytest.raises(InputError, match="^SID tokens must be in|^a SID "
                                             "table takes an integer K"):
            SidTable(bad, CFG.K)
    if type(token) is int and 0 <= token < 2 ** 63:
        wide = SidTable(sids[:9] + [[token, 0]], token + 1)
        for call in _next_sid_calls(init_next_sid(CFG), wide, seqs):
            with pytest.raises(InputError, match=re.escape(
                    f"(L, K) = (2, {token + 1}) must be the model's (2, 4)")):
                call()


def test_next_sid_size_counts_the_model():
    for config in (CFG, NextSidConfig(L=1, K=1, d_s=1, hidden=1),
                   NextSidConfig(L=5, K=7, d_s=3, hidden=4)):
        model = init_next_sid(config)
        assert evalsuite.next_sid_size(config) == model.table.size + sum(
            p.size for m in model.scorers for p in m.flat())


@pytest.mark.parametrize("beam_width", [2.5, 3.0, True, 0, -1, "4"])
def test_hr_at_k_rejects_bad_beam_width(rng, beam_width):
    # an integer covering max(k_list): checked once, before any decoding
    sid_table, seqs = _toy_setup(rng)
    with pytest.raises(ConfigurationError, match="beam_width must be an "
                                                 "integer >= 1"):
        hr_at_k(init_next_sid(CFG), seqs, sid_table, [1], beam_width)


# values a k_list entry or a beam width might take: ints around the
# float-exact limit 2**53 too, where require compares with float(max)
_CHECK_VALUES = st.one_of(
    st.integers(-2, 25), st.integers(2 ** 53 - 2, 2 ** 53 + 5),
    st.just(10 ** 400), st.booleans(), st.none(),
    st.integers(-1, 25).map(np.int64), st.floats(allow_nan=True),
    st.just("4"))


def _require_outcome(k_list, beam_width):
    """The error `numkit.require`'s rule gives, or None."""
    try:
        numkit.require("k_list", k_list, "int", ">= 1", items="+")
        if beam_width is not None:
            numkit.require("beam_width", beam_width, "int",
                           f">= {max(k_list)}")
    except ConfigurationError as e:
        return type(e), str(e)
    return None


@settings(max_examples=300, deadline=None)
@given(k_list=st.one_of(st.lists(_CHECK_VALUES, max_size=4),
                        st.lists(_CHECK_VALUES, max_size=4).map(tuple),
                        _CHECK_VALUES),
       beam_width=_CHECK_VALUES)
def test_hr_at_k_checks_as_require(k_list, beam_width):
    # the cheap test for plain lists of ints must accept and reject
    # exactly what require does, with require's exception and message
    model = init_next_sid(NextSidConfig(L=2, K=2, d_s=2, hidden=2))
    table = SidTable([(0, 1), (1, 0)], 2)
    seqs = [[0, 1]]
    want = _require_outcome(k_list, beam_width)
    try:
        hr = hr_at_k(model, seqs, table, k_list, beam_width)
    except Exception as e:  # noqa: BLE001 - compared with require's
        assert (type(e), str(e)) == want
    else:
        assert want is None
        assert set(hr) == set(k_list)


@pytest.mark.parametrize("k_list", [[], [0], [1, -5], [2.0], [True], (),
                                    None])
def test_retrieval_recall_rejects_bad_k_list(small_catalog, k_list):
    # [] once returned {} and [0] returned {0: 0.0}
    dv = small_catalog.spec.dv
    with pytest.raises(ConfigurationError, match="k_list must be a "
                                                 "nonempty list of integers"):
        retrieval_recall(lambda x: x[:, :dv], small_catalog, k_list,
                         n_neg=5)


def test_beam_decode_width_zero_and_negative(rng):
    model = init_next_sid(CFG)
    assert beam_decode(model, np.ones(CFG.d_s), 0) == []
    with pytest.raises(ConfigurationError, match="beam width"):
        beam_decode(model, np.ones(CFG.d_s), -1)


@pytest.mark.parametrize("field", ["history", "batch_size"])
def test_next_sid_config_rejects_zero(rng, field):
    # history 0 would silently take the whole history, batch size 0
    # would stop in range()
    sid_table, seqs = _toy_setup(rng)
    bad = dataclasses.replace(CFG, **{field: 0})
    with pytest.raises(ConfigurationError, match=field):
        train_next_sid(seqs, sid_table, bad)


def test_hr_monotone_in_k(rng):
    sid_table, seqs = _toy_setup(rng)
    model = train_next_sid(seqs, sid_table,
                           NextSidConfig(L=2, K=4, d_s=6, hidden=8,
                                         history=3, epochs=5, seed=0))
    hr = hr_at_k(model, seqs, sid_table, [1, 2, 4, 8])
    assert hr[1] <= hr[2] <= hr[4] <= hr[8]


def test_retrieval_recall_visual_identity(small_catalog):
    # the query keeps the visual block intact, so embedding = visual block
    # retrieves the item itself at rank 1 every time
    dv = small_catalog.spec.dv
    recall = retrieval_recall(lambda x: x[:, :dv], small_catalog,
                              [1, 5], n_neg=20, seed=0)
    assert recall == {1: 1.0, 5: 1.0}


def test_retrieval_recall_monotonicity(small_catalog, rng):
    w = rng.normal(size=(small_catalog.spec.feature_dim, 4))
    embed = lambda x: x @ w
    r = retrieval_recall(embed, small_catalog, [1, 5, 10], n_neg=30, seed=1)
    assert r[1] <= r[5] <= r[10]
    # nested negative pools: more negatives can only hurt
    r_small = retrieval_recall(embed, small_catalog, [5], n_neg=10, seed=1)
    r_large = retrieval_recall(embed, small_catalog, [5], n_neg=40, seed=1)
    assert r_large[5] <= r_small[5]
    with pytest.raises(ConfigurationError):
        retrieval_recall(embed, small_catalog, [1], n_neg=64)


@pytest.mark.parametrize("n_neg", [-1, -60, 2.5, "20"])
def test_retrieval_recall_rejects_bad_n_neg(small_catalog, n_neg):
    # a negative count once sliced the pool to all items but |n_neg|
    dv = small_catalog.spec.dv
    with pytest.raises(ConfigurationError, match="n_neg"):
        retrieval_recall(lambda x: x[:, :dv], small_catalog, [1, 5],
                         n_neg=n_neg)


def _oracle_retrieval_recall(embed_fn, catalog, k_list, n_neg=99, seed=0):
    n_items = len(catalog.items)
    query_ids = catalog.test_ids
    rng = np.random.default_rng(seed)
    spec = catalog.spec
    queries = catalog.features_matrix(query_ids).copy()
    dv, dt = spec.dv, spec.dt
    queries[:, dv:dv + dt] += spec.noise_std * rng.normal(
        size=(len(query_ids), dt))
    queries[:, dv + dt:] = 0.0
    q_emb = embed_fn(queries)
    all_emb = embed_fn(catalog.features_matrix())
    all_norm = all_emb / np.maximum(np.linalg.norm(all_emb, axis=1,
                                                   keepdims=True), 1e-12)
    q_norm = q_emb / np.maximum(np.linalg.norm(q_emb, axis=1, keepdims=True),
                                1e-12)
    hits = {k: 0 for k in k_list}
    for qi, item_id in enumerate(query_ids):
        perm = rng.permutation(n_items)
        negs = [int(j) for j in perm if j != item_id][:n_neg]
        pool = [item_id] + negs
        sims = all_norm[pool] @ q_norm[qi]
        order = sorted(range(len(pool)), key=lambda j: (-sims[j], pool[j]))
        rank = order.index(0) + 1
        for k in k_list:
            if rank <= k:
                hits[k] += 1
    return {k: hits[k] / len(query_ids) for k in k_list}


def _oracle_ranked_recall(embed_fn, catalog, k_list, n_neg=99, seed=0):
    """Each query's rank counted as soon as its pool is drawn, before
    pools and similarities were stored as (queries, n_neg + 1) arrays."""
    n_items = len(catalog.items)
    query_ids = catalog.test_ids
    rng = np.random.default_rng(seed)
    spec = catalog.spec
    queries = catalog.features_matrix(query_ids)
    dv, dt = spec.dv, spec.dt
    queries[:, dv:dv + dt] += spec.noise_std * rng.normal(
        size=(len(query_ids), dt))
    queries[:, dv + dt:] = 0.0
    q_emb = embed_fn(queries)
    all_emb = embed_fn(catalog.features_matrix())
    all_norm = all_emb / np.maximum(np.linalg.norm(all_emb, axis=1,
                                                   keepdims=True), 1e-12)
    q_norm = q_emb / np.maximum(np.linalg.norm(q_emb, axis=1, keepdims=True),
                                1e-12)
    ranks = np.empty(len(query_ids), dtype=np.int64)
    for qi, item_id in enumerate(query_ids):
        perm = rng.permutation(n_items)
        pool = np.concatenate(([item_id], perm[perm != item_id][:n_neg]))
        sims = all_norm[pool] @ q_norm[qi]
        ranks[qi] = 1 + np.count_nonzero(
            (sims > sims[0]) | ((sims == sims[0]) & (pool < item_id)))
    return {k: int(np.count_nonzero(ranks <= k)) / len(query_ids)
            for k in k_list}


def test_retrieval_recall_matches_loop(medium_catalog):
    w = np.random.default_rng(5).normal(
        size=(medium_catalog.spec.feature_dim, 3))
    k_list = [1, 5, 10, 50]
    for embed in (lambda x: x @ w,
                  lambda x: np.round(x @ w, 1),  # many exact ties
                  lambda x: np.ones((len(x), 3))):  # every cosine ties
        for n_neg, seed in ((0, 1), (20, 0), (99, 3), (269, 4)):
            got = retrieval_recall(embed, medium_catalog, k_list,
                                   n_neg=n_neg, seed=seed)
            for oracle in (_oracle_retrieval_recall, _oracle_ranked_recall):
                assert got == oracle(embed, medium_catalog, k_list,
                                     n_neg=n_neg, seed=seed)
            assert all(type(v) is float for v in got.values())


def test_eval_report_roundtrip(tmp_path):
    rep = EvalReport(scheme="unisid", seed=3, config_digest="abc123",
                     v_measure=[0.5, 0.6, 0.7], hr={1: 0.1, 5: 0.3},
                     recall={1: 0.2}, collision=0.01,
                     distinct_prefixes=[4, 9, 14], extra={"note": "x"})
    p = tmp_path / "report.json"
    rep.save_json(str(p))
    first = p.read_bytes()
    got = load_report(str(p))
    assert got == rep
    got.save_json(str(p))
    assert p.read_bytes() == first  # byte-identical re-serialization

    csv_path = tmp_path / "report.csv"
    rep.save_csv(str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "scheme,metric,value"
    assert "unisid,v_measure_l1,0.5" in lines
    assert "unisid,hr@1,0.1" in lines
    assert "unisid,collision_rate,0.01" in lines
