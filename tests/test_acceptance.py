"""Acceptance suite: one test per release criterion.

Each test appends a single PASS/FAIL line to the summary block printed at
the end of the run, then asserts the criterion at its stated tolerance.
"""

import json
import os
import time
from itertools import product
from statistics import median

import numpy as np
import pytest

import conftest
from sidforge import evalsuite, numkit, rq, summarizer, unisid
from sidforge.catalog import CatalogSpec, generate_catalog
from sidforge.checkpoint import load_checkpoint, save_checkpoint
from sidforge.cli import main
from sidforge.evalsuite import (NextSidConfig, hr_at_k, retrieval_recall,
                                train_next_sid, v_measure)
from sidforge.objectives import (TrainConfig, emb_contrastive_loss,
                                 make_contrast_batch, mg_contrastive_loss,
                                 train_unisid)
from testkit import (code_usage_loss, finite_diff_check, history_vectors,
                     log_softmax, next_sid_loss_grads, prefix_onehot)

SMALL_CFG = {
    "catalog": {"branching": [2, 2, 2], "n_items": 64, "dv": 4, "dt": 4,
                "noise_std": 0.2, "seed": 3},
    "train": {"epochs": 2, "batch_size": 32, "d_h": 16, "d_e": 8, "d_r": 8},
    "embed_train": {"epochs": 2},
    "rq": {"K": 4, "iterations": 10},
    "rqvae": {"K": 4, "d": 8, "epochs": 2, "hidden": 8},
    "eval": {"k_list": [1, 5], "n_neg": 20, "n_users": 30, "T": 8,
             "next_sid": {"d_s": 8, "hidden": 8, "epochs": 2}},
    "case_study": {"n_items": 5},
}


def record(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LINES.append(
        f"[criterion {criterion}] {status}: {detail}")


# --- shared fixtures --------------------------------------------------------

@pytest.fixture(scope="module")
def desk_catalog():
    return generate_catalog(CatalogSpec())


@pytest.fixture(scope="module")
def trained_schemes(desk_catalog):
    """Default-config UniSID and RQ-VAE over seeds 1..3, with SID tables
    and HR@5 under the identical downstream model."""
    cat = desk_catalog

    def hr5(table, seed):
        seqs = evalsuite.gen_user_sequences(cat, 1000, 20, seed=17)
        n_test = len(seqs) // 5
        model = train_next_sid(seqs[:-n_test], table,
                               NextSidConfig(epochs=8, seed=19))
        return hr_at_k(model, seqs[-n_test:], table, [5])[5]

    out = {"unisid": [], "rqvae": [], "models": {}}
    for seed in (1, 2, 3):
        model, pipe, _ = train_unisid(cat, TrainConfig(seed=seed))
        table, _ = unisid.assign_catalog(model, cat)
        out["unisid"].append({
            "v": [evalsuite.sid_level_vmeasure(table, cat, l)
                  for l in (1, 2, 3)],
            "hr5": hr5(table, seed)})
        out["models"][seed] = (model, pipe)

        vae, _ = rq.rq_vae_fit(cat.features_matrix(),
                               rq.RqVaeConfig(epochs=15, seed=seed + 10))
        z, _ = numkit.mlp_apply(vae.encoder, cat.features_matrix())
        tok = rq.rq_assign_batch(vae.codebook, z)
        vtable = unisid.token_table(tok)
        out["rqvae"].append({
            "v": [evalsuite.sid_level_vmeasure(vtable, cat, l)
                  for l in (1, 2, 3)],
            "hr5": hr5(vtable, seed)})
    return out


def _run_small_pipeline(root, out_name):
    cfg_path = root / "config.json"
    if not cfg_path.exists():
        cfg_path.write_text(json.dumps(SMALL_CFG))
    out = str(root / out_name)
    for command in ("gen-data", "train-unisid", "fit-rqkmeans",
                    "train-rqvae", "assign", "eval"):
        code = main([command, "--config", str(cfg_path), "--out", out])
        assert code == 0, command
    return out


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """The same small pipeline executed twice into separate directories."""
    root = tmp_path_factory.mktemp("accept")
    return root, _run_small_pipeline(root, "a"), _run_small_pipeline(root, "b")


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    cfg_path = root / "config.json"
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg_path.write_text(json.dumps(cfg))  # default lambda list applies
    out = str(root / "run")
    assert main(["gen-data", "--config", str(cfg_path), "--out", out]) == 0
    assert main(["sweep-lambda", "--config", str(cfg_path),
                 "--out", out]) == 0
    return out


# --- criterion 1: gradient soundness ----------------------------------------

def test_criterion_1_gradient_soundness(small_catalog):
    t0 = time.time()
    worst = 0.0
    redraws = 0  # sampled coordinates with a kink inside +-h
    n_seeds = 20
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)

        # multi-granularity contrastive
        leaves = rng.choice(8, size=4, replace=False)
        ids = sorted(int(j) for l in leaves for j in (l, l + 8))
        cb = make_contrast_batch(small_catalog, ids, tau=0.07)
        logits = rng.normal(size=(8, 3, 4))

        def mg_lg(params):
            loss, g = mg_contrastive_loss(params[0], cb)
            return loss, [g]

        rep = finite_diff_check(mg_lg, [logits], h=1e-4,
                                tolerance=1e-4,
                                max_coords_per_param=8, rng=rng)
        worst = max(worst, rep.max_rel_error)
        redraws += rep.redraws

        # embedding contrastive
        emb = rng.normal(size=(8, 6))

        def emb_lg(params):
            loss, g = emb_contrastive_loss(params[0], cb)
            return loss, [g]

        rep = finite_diff_check(emb_lg, [emb], h=1e-4,
                                tolerance=1e-4,
                                max_coords_per_param=8, rng=rng)
        worst = max(worst, rep.max_rel_error)
        redraws += rep.redraws

        # reconstruction loss (conditioning state + decoder parameters)
        vocab = summarizer.build_vocab(small_catalog.tree)
        pipe = summarizer.init_pipeline(2, 4, 5, 6, vocab, seed,
                                        decoder_hidden=8)
        targets = rng.integers(0, len(vocab), size=(3, summarizer.SUMMARY_LEN))
        h0 = rng.normal(size=(3, 6))

        def rec_lg(params):
            pipe.decoder.set_flat(params[1:])
            loss, g_h, dec = summarizer.recon_loss(params[0], targets, pipe)
            return loss, [g_h] + dec

        rep = finite_diff_check(
            rec_lg, [h0] + pipe.decoder.flat(), h=1e-4, tolerance=1e-4,
            max_coords_per_param=3, rng=rng)
        worst = max(worst, rep.max_rel_error)
        redraws += rep.redraws

        # RQ-VAE training loss: the straight-through estimator is the
        # exact gradient of the frozen-assignment surrogate
        x = rng.normal(size=(8, 5))
        enc = numkit.mlp_init([5, 6, 4], rng)
        dec = numkit.mlp_init([4, 6, 5], rng)
        cbk = rq.Codebook(levels=rng.normal(size=(2, 3, 4)))
        model = rq.RqVaeModel(encoder=enc, decoder=dec, codebook=cbk,
                              beta=0.25)
        _, _, _, z0, tok0 = rq.rq_vae_loss_grads(model, x)
        delta = rq.quantize(model.codebook, z0)[0] - z0
        cums = np.cumsum(np.stack([cbk.levels[l][tok0[:, l]]
                                   for l in range(2)]), axis=0)
        n_enc = len(enc.flat())

        def vae_lg(params):
            enc.set_flat(params[:n_enc])
            dec.set_flat(params[n_enc:])
            z, _ = numkit.mlp_apply(enc, x)
            xhat, _ = numkit.mlp_apply(dec, z + delta)
            loss = np.mean(np.sum((x - xhat) ** 2, axis=1))
            for lvl in range(2):
                loss += 0.25 * np.mean(np.sum((z - cums[lvl]) ** 2, axis=1))
            _, eg, dg, _, _ = rq.rq_vae_loss_grads(model, x)
            return float(loss), eg + dg

        rep = finite_diff_check(vae_lg, enc.flat() + dec.flat(),
                                h=1e-4, tolerance=1e-4,
                                max_coords_per_param=2, rng=rng)
        worst = max(worst, rep.max_rel_error)
        redraws += rep.redraws

        # next-SID training loss
        sid_table = {i: (int(rng.integers(4)), int(rng.integers(4)))
                     for i in range(10)}
        seqs = rng.integers(10, size=(5, 5))
        ns_model = evalsuite.init_next_sid(
            NextSidConfig(L=2, K=4, d_s=6, hidden=8, history=3, seed=seed))
        for s in ns_model.scorers:  # break the zero-init symmetry
            s.weights[-1] = 0.1 * rng.normal(size=s.weights[-1].shape)

        def ns_lg(params):
            ns_model.table = params[0]
            k = 1
            for s in ns_model.scorers:
                cnt = len(s.flat())
                s.set_flat(params[k:k + cnt])
                k += cnt
            loss, g_t, gs = next_sid_loss_grads(ns_model, seqs,
                                                          sid_table)
            return loss, [g_t] + [g for grp in gs for g in grp]

        params = [ns_model.table.astype(np.float64)] + [
            p.astype(np.float64) for s in ns_model.scorers for p in s.flat()]
        rep = finite_diff_check(ns_lg, params, h=1e-4,
                                tolerance=1e-4,
                                max_coords_per_param=3, rng=rng)
        worst = max(worst, rep.max_rel_error)
        redraws += rep.redraws

        # level-1 code-usage term
        def use_lg(params):
            loss, g = code_usage_loss(params[0])
            return loss, [g]

        rep = finite_diff_check(use_lg, [logits[:, 0, :].copy()],
                                h=1e-4, tolerance=1e-4,
                                max_coords_per_param=8, rng=rng)
        worst = max(worst, rep.max_rel_error)
        redraws += rep.redraws

    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60
    record(1, ok, f"6 losses x {n_seeds} seeds, max rel error "
                  f"{worst:.2e} (< 1e-4), {redraws} kinked coordinates "
                  f"redrawn, {elapsed:.1f}s (< 60s)")
    assert ok


# --- criterion 2: RQ exactness ----------------------------------------------

def test_criterion_2_rq_exactness():
    t0 = time.time()
    rng = np.random.default_rng(77)
    cb = rq.Codebook(levels=rng.normal(size=(3, 16, 8)))
    x = rng.normal(size=(10_000, 8))
    mismatches = 0
    for v, tokens in zip(x, rq.rq_assign_batch(cb, x)):
        r = v.copy()
        for lvl in range(3):
            d2 = np.sum((cb.levels[lvl] - r) ** 2, axis=1)
            if tokens[lvl] != int(np.argmin(d2)) or \
                    d2[tokens[lvl]] > d2.min():
                mismatches += 1
            r = r - cb.levels[lvl, tokens[lvl]]
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 10
    record(2, ok, f"rq_assign_batch vs brute-force scan on 10,000 vectors: "
                  f"{mismatches} mismatches, {elapsed:.1f}s (< 10s)")
    assert ok


# --- criterion 3: metric identities ------------------------------------------

def _entropy_oracle(counts):
    """Hand-computed homogeneity/completeness/V from raw counts."""
    import math
    n = counts.sum()
    def H(marg):
        return -sum(m / n * math.log(m / n) for m in marg if m > 0)
    h_joint = -sum(c / n * math.log(c / n)
                   for c in counts.reshape(-1) if c > 0)
    h_cl, h_la = H(counts.sum(axis=1)), H(counts.sum(axis=0))
    h = 1.0 if h_la == 0 else 1.0 - (h_joint - h_cl) / h_la
    c = 1.0 if h_cl == 0 else 1.0 - (h_joint - h_la) / h_cl
    v = 0.0 if h + c == 0 else 2 * h * c / (h + c)
    return h, c, v


def test_criterion_3_metric_identities(small_runs, sweep_run):
    # identities
    ok = v_measure([0, 0, 1, 1], [7, 7, 9, 9]) == (1.0, 1.0, 1.0)
    ok &= v_measure([0, 0, 0], [0, 1, 2])[2] == 0.0

    # 100 random contingency tables against the hand-entropy oracle
    rng = np.random.default_rng(5)
    max_err = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 80))
        cl = rng.integers(0, int(rng.integers(2, 9)), size=n)
        la = rng.integers(0, int(rng.integers(2, 9)), size=n)
        got = v_measure(cl.tolist(), la.tolist())
        counts = evalsuite.make_contingency(cl.tolist(), la.tolist())
        want = _entropy_oracle(counts)
        max_err = max(max_err, *(abs(a - b) for a, b in zip(got, want)))
    ok &= max_err < 1e-9

    # HR@K / R@K monotone in K on every produced report
    _, run_a, run_b = small_runs
    report_paths = []
    for d in (run_a, run_b):
        report_paths += [os.path.join(d, f"eval_{s}.json")
                         for s in ("unisid", "rqkmeans", "rqvae")]
    sweep_dir = os.path.join(sweep_run, "sweep")
    for sub in sorted(os.listdir(sweep_dir)):
        report_paths.append(os.path.join(sweep_dir, sub, "eval_unisid.json"))
    n_reports = 0
    monotone = True
    for path in report_paths:
        rep = evalsuite.load_report(path)
        n_reports += 1
        for metrics in (rep.hr, rep.recall):
            if not metrics:
                continue
            ks = sorted(metrics)
            monotone &= all(metrics[a] <= metrics[b]
                            for a, b in zip(ks, ks[1:]))
    ok &= monotone and n_reports >= 6
    record(3, ok, f"identities hold, 100 contingency tables max err "
                  f"{max_err:.1e} (< 1e-9), HR/R monotone on "
                  f"{n_reports} produced reports")
    assert ok


# --- criterion 4: beam-search correctness ------------------------------------

def test_criterion_4_beam_equals_exhaustive():
    rng = np.random.default_rng(3)
    K, L = 3, 2
    sid_table = {i: (int(rng.integers(K)), int(rng.integers(K)))
                 for i in range(12)}
    seqs = rng.integers(12, size=(5, 5))
    cfg = NextSidConfig(L=L, K=K, d_s=6, hidden=8, history=3, epochs=4,
                        seed=1)
    model = train_next_sid(seqs, sid_table, cfg)
    k_list = [1, 3, 9]
    got = hr_at_k(model, seqs, sid_table, k_list, beam_width=K ** L)

    # independent exhaustive scoring of all K^L sequences
    hist = history_vectors(model, seqs, sid_table)
    hits = {k: 0 for k in k_list}
    for i, s in enumerate(seqs):
        scored = []
        for cand in product(range(K), repeat=L):
            total = 0.0
            for lvl in range(L):
                x = np.concatenate([hist[i],
                                    prefix_onehot(cand[:lvl], lvl, K)])
                lp = log_softmax(
                    numkit.mlp_apply(model.scorers[lvl], x[None, :])[0][0])
                total += float(lp[cand[lvl]])
            scored.append((total, cand))
        scored.sort(key=lambda t: (-t[0], t[1]))
        ranked = [c for _, c in scored]
        for k in k_list:
            if tuple(sid_table[int(s[-1])]) in ranked[:k]:
                hits[k] += 1
    want = {k: hits[k] / len(seqs) for k in k_list}
    ok = got == want
    record(4, ok, f"exhaustive beam HR equals exhaustive scoring exactly "
                  f"at K={K}, L={L}: {got}")
    assert ok


# --- criterion 5: separable-catalog recovery ---------------------------------

def test_criterion_5_separable_recovery():
    t0 = time.time()
    cat = generate_catalog(CatalogSpec(noise_std=0.1, ambiguity=False))
    v1s = []
    for seed in (0, 1, 2):
        cfg = TrainConfig(epochs=15, seed=seed, use_sid=False, lam=0.0)
        model, _, _ = train_unisid(cat, cfg)
        emb = unisid.embed_batch(model, cat.features_matrix())
        # K = 64 codewords so level 1 can resolve all 64 leaves
        cb = rq.rq_kmeans_fit(emb, L=3, K=64, seed=seed + 100)
        tok = rq.rq_assign_batch(cb, emb)
        table = unisid.token_table(tok)
        v1s.append(evalsuite.sid_level_vmeasure(table, cat, 1))
    elapsed = time.time() - t0
    med = median(v1s)
    ok = med >= 0.90 and elapsed < 300
    record(5, ok, f"RQ-KMeans level-1 V median {med:.4f} (>= 0.90) over "
                  f"3 seeds, {elapsed:.0f}s (< 300s)")
    assert ok


# --- criterion 6: directional quality comparison -----------------------------

def test_criterion_6_directional_comparison(trained_schemes):
    t0 = time.time()
    uni = trained_schemes["unisid"]
    vae = trained_schemes["rqvae"]
    med_u = [median(r["v"][l] for r in uni) for l in range(3)]
    med_v = [median(r["v"][l] for r in vae) for l in range(3)]
    hr_u = median(r["hr5"] for r in uni)
    hr_v = median(r["hr5"] for r in vae)
    v_ok = [a >= b for a, b in zip(med_u, med_v)]
    hr_ok = hr_u >= hr_v
    ok = all(v_ok) and hr_ok
    detail = (f"median V unisid {[f'{v:.3f}' for v in med_u]} vs rqvae "
              f"{[f'{v:.3f}' for v in med_v]} (levels >= : {v_ok}); "
              f"HR@5 {hr_u:.3f} vs {hr_v:.3f} (>= : {hr_ok})")
    record(6, ok, detail)
    assert ok, detail


# --- criterion 7: reconstruction efficacy ------------------------------------

def _content_accuracy(cat, model, pipe):
    ids = cat.test_ids
    fp = unisid.forward_batch(model, cat.features_matrix(ids))
    h, _ = summarizer.recon_state(fp.logits, fp.embedding, pipe)
    decoded = summarizer.decode_summary(h, pipe)
    targets = np.stack([summarizer.summarize(cat.labels[i], cat.tree)
                        for i in ids])
    return float(np.mean(decoded[:, 0] == targets[:, 0]))


def test_criterion_7_reconstruction_efficacy(desk_catalog, trained_schemes):
    cat = desk_catalog
    model, pipe = trained_schemes["models"][1]
    acc_default = _content_accuracy(cat, model, pipe)
    m0, p0, _ = train_unisid(cat, TrainConfig(seed=1, lam=0.0))
    acc_ablated = _content_accuracy(cat, m0, p0)
    ok = acc_default >= 0.80 and acc_ablated <= 0.50
    record(7, ok, f"held-out content-token accuracy {acc_default:.3f} "
                  f"(>= 0.80) with reconstruction, {acc_ablated:.3f} "
                  f"(<= 0.50) at lambda=0")
    assert ok


# --- criterion 8: lambda-sweep artifact --------------------------------------

def test_criterion_8_lambda_sweep(sweep_run):
    want = [0.01, 0.1, 0.5, 1.0]
    reports = []
    for lam in want:
        path = os.path.join(sweep_run, "sweep", f"lambda_{lam:g}",
                            "eval_unisid.json")
        assert os.path.exists(path), path
        reports.append(evalsuite.load_report(path))
    lams = [r.extra["lam"] for r in reports]
    v3 = {r.extra["lam"]: r.v_measure[2] for r in reports}
    peak = max(v3, key=lambda l: v3[l])
    ok = lams == want
    shape = "inverted-U" if peak in (0.1, 0.5) else "flat/monotone"
    record(8, ok, f"4 sweep reports at lambda {lams}; level-3 V by lambda "
                  f"{ {l: round(v, 3) for l, v in v3.items()} } "
                  f"(peak {peak:g}, {shape}; reported, not gated)")
    assert ok


# --- criterion 9: determinism & persistence ----------------------------------

def test_criterion_9_determinism(small_runs):
    _, run_a, run_b = small_runs
    identical = True
    for scheme in ("unisid", "rqkmeans", "rqvae"):
        a = open(os.path.join(run_a, f"eval_{scheme}.json"), "rb").read()
        b = open(os.path.join(run_b, f"eval_{scheme}.json"), "rb").read()
        identical &= a == b

    # checkpoint round trips are bit-exact
    roundtrip = True
    for scheme in ("unisid", "rqkmeans", "rqvae"):
        src = os.path.join(run_a, f"{scheme}.ckpt")
        dup = src + ".resaved"
        save_checkpoint(load_checkpoint(src), dup)
        roundtrip &= open(src, "rb").read() == open(dup, "rb").read()

    ok = identical and roundtrip
    record(9, ok, "pipeline rerun EvalReport JSON byte-identical for all 3 "
                  "schemes; checkpoint save/load/save byte-exact")
    assert ok
