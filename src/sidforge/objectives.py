"""Training objectives for the unified model: the per-level contrastive
loss over SID logit blocks, the level-1 code-usage term, the embedding
contrastive loss, the weighted total, and the joint end-to-end training
loop.  All gradients are analytic and checked against finite differences
in the test suite.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import numkit, summarizer, unisid
from .catalog import ItemCatalog, build_positive_sets
from .errors import ConfigurationError, InputError, NumericError
from .summarizer import ReconPipeline
from .unisid import UniSidConfig, UniSidModel


# weight and softmax temperature of the level-1 code-usage term
USAGE_WEIGHT = 3.0
USAGE_TAU = 0.1


@dataclass
class ContrastBatch:
    """Per-SID-level positive masks (an (L, n, n) bool stack over batch
    positions, false diagonal; SID level l uses taxonomy level l+1, the
    last SID level the leaves), embedding positive pairing (-1 = no
    same-leaf mate, query skipped), temperature."""

    ids: list[int]
    level_masks: np.ndarray
    emb_pos: np.ndarray
    tau: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigurationError("temperature must be positive")

    @property
    def level_pos(self) -> list[list[np.ndarray]]:
        """[SID level][batch position] -> positive batch positions."""
        return [[np.flatnonzero(row) for row in m] for m in self.level_masks]


def make_contrast_batch(catalog: ItemCatalog,
                        batch_ids: list[int] | np.ndarray,
                        tau: float) -> ContrastBatch:
    """Positive sets for one batch.  SID level l is contrasted on
    taxonomy level l+1 (levels counted from 1), the last SID level on the
    leaves: contrasting level 1 on the top categories would tie its codes
    to those few nodes and cap its leaf-label V-measure (homogeneity
    log 4 / log 64 on the 4-4-4 tree).  The embedding pairs each query
    with its lowest-id same-leaf mate."""
    masks = build_positive_sets(catalog, batch_ids)
    # deterministic pairing: the same-leaf mate with the lowest item id
    mates = masks[-1]
    ids = np.asarray(batch_ids, dtype=np.int64)
    lowest = np.argmin(np.where(mates, ids[None, :], np.iinfo(np.int64).max),
                       axis=1)
    emb_pos = np.where(mates.any(axis=1), lowest, -1)
    return ContrastBatch(ids=ids.tolist(),
                         level_masks=masks[[*range(1, len(masks)), -1]],
                         emb_pos=emb_pos, tau=tau)


def _normalize_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors along the last axis, C-ordered in z's shape (so each
    matrix of a stack is contiguous), and the norms (as np.linalg.norm
    computes them)."""
    norms = np.sqrt((z * z).sum(axis=-1))
    if (norms == 0.0).any():
        raise NumericError("zero-norm vector: cosine similarity undefined")
    return np.divide(z, norms[..., None], out=np.empty(z.shape)), norms


def _cosine_backprop(g_sim: np.ndarray, zh: np.ndarray, norms: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """Map a gradient w.r.t. each cosine matrix of a stack (zero
    diagonal) back to the raw vectors, written into `out`."""
    u = (g_sim + np.swapaxes(g_sim, -1, -2)) @ zh
    radial = (u * zh).sum(axis=-1, keepdims=True)
    u -= radial * zh
    return np.divide(u, norms[..., None], out=out)


def _infonce(sim: np.ndarray, tau: float, pos_mask: np.ndarray):
    """Supervised InfoNCE over an (L, n, n) stack of similarity matrices
    (Khosla et al., Supervised Contrastive Learning, NeurIPS 2020).

    Per level and query i with positives P (row i of the boolean mask,
    diagonal false) and candidates everyone but i:
    loss_i = logsumexp_{j != i}(s_ij/tau) - mean_P(s_ij/tau).  Queries
    with empty P are skipped: their gradient rows are zero and their
    terms left out of each level's sum, which adds the contributing
    queries in order as a level's own array would.  `sim` is consumed.
    Returns (per-level sums of query losses, gradient w.r.t. sim,
    per-level numbers of contributing queries).
    """
    L, n, _ = sim.shape
    n_pos = pos_mask.sum(axis=2)
    valid = n_pos > 0
    logits = np.divide(sim, tau, out=sim)
    logits.reshape(L, n * n)[:, ::n + 1] = -np.inf  # a query is no candidate
    m = logits.max(axis=2, keepdims=True)
    soft = np.subtract(logits, m)
    np.exp(soft, out=soft)
    z = soft.sum(axis=2, keepdims=True)
    k = np.maximum(n_pos, 1)  # skipped queries divide by 1, then drop out
    pos_mean = np.where(pos_mask, logits, 0.0).sum(axis=2) / k
    terms = m[..., 0] + np.log(z[..., 0]) - pos_mean
    totals = [float(t[v].sum()) for t, v in zip(terms, valid)]
    soft /= z
    # the bits of `soft -= pos_mask / k`: elsewhere that subtracts +0.0
    np.subtract(soft, (1.0 / k)[..., None], out=soft, where=pos_mask)
    soft /= tau
    soft[~valid] = 0.0
    return totals, soft, valid.sum(axis=1)


def _contrast_stack(parts: list[np.ndarray], pos_masks: np.ndarray,
                    tau: float) -> list[tuple]:
    """Cosine InfoNCE on each level of several (n, L_p, d_p) stacks of
    vectors, in one _infonce call over the (sum of L_p, n, n) similarity
    stack, against positive masks in the same level order.  A part's loss
    is each of its levels' mean over their contributing queries, averaged
    over its L_p levels (a level without one adds nothing), as the part
    alone would give it.  Returns per part (loss, gradient of its shape,
    its unit vectors (L_p, n, d_p), their norms)."""
    n = parts[0].shape[0]
    sim = np.empty((len(pos_masks), n, n))
    units, at = [], 0
    for z in parts:
        zh, norms = _normalize_rows(np.swapaxes(z, 0, 1))
        np.matmul(zh, np.swapaxes(zh, 1, 2), out=sim[at:at + len(zh)])
        units.append((zh, norms))
        at += len(zh)
    totals, g_sim, n_valid = _infonce(sim, tau, pos_masks)
    out, at = [], 0
    for z, (zh, norms) in zip(parts, units):
        levels = slice(at, at + len(zh))
        scale = n_valid[levels] * len(zh)
        g_sim[levels] /= np.maximum(scale, 1)[:, None, None]
        grad = np.empty(z.shape)
        _cosine_backprop(g_sim[levels], zh, norms,
                         out=np.swapaxes(grad, 0, 1))
        loss = 0.0
        for total, count in zip(totals[levels], scale.tolist()):
            if count:
                loss += total / count
        out.append((loss, grad, zh, norms))
        at = levels.stop
    return out


def _emb_mask(batch: ContrastBatch) -> np.ndarray:
    """The embedding's (1, n, n) positive mask: each query's mate."""
    n = len(batch.emb_pos)
    has_mate = batch.emb_pos >= 0
    mask = np.zeros((1, n, n), dtype=bool)
    mask[0, has_mate, batch.emb_pos[has_mate]] = True
    return mask


def mg_contrastive_loss(level_logits: np.ndarray,
                        batch: ContrastBatch) -> tuple[float, np.ndarray]:
    """Multi-granularity contrastive loss over (n, L, K) logit blocks.

    Averages per-query terms within each level (queries with no positive
    at that level are excluded from that level's average), then averages
    over levels.  Returns (loss, gradient of the same shape).
    """
    level_logits = np.asarray(level_logits, dtype=np.float64)
    if len(batch.level_masks) != level_logits.shape[1]:
        raise InputError("positive sets do not match level count")
    [(loss, grad, _, _)] = _contrast_stack([level_logits], batch.level_masks,
                                           batch.tau)
    return loss, grad


def _code_usage(zh: np.ndarray, norms: np.ndarray
                ) -> tuple[float, np.ndarray]:
    """Code-usage term over one (n, K) logit block, from its unit rows
    `zh` and their norms, after IIC (Ji et al., Invariant Information
    Clustering, ICCV 2019).

    With p_i = softmax(cosine-normalised logits_i / USAGE_TAU), the term is
    KL(mean_i p_i || uniform) + mean_i H(p_i): it is zero when each item
    picks one code with certainty and the batch spreads evenly over all
    K codes.  Returns (loss, gradient w.r.t. the logits).
    """
    n, K = zh.shape
    a = zh / USAGE_TAU
    a = a - a.max(axis=1, keepdims=True)
    logp = a - np.log(np.exp(a).sum(axis=1, keepdims=True))
    p = np.exp(logp)
    pbar = p.mean(axis=0)
    log_ku = np.log(pbar) + np.log(K)
    loss = float(pbar @ log_ku) - float(np.sum(p * logp)) / n
    # d/dp_ik of the two parts; their constant terms cancel
    g_p = (log_ku[None, :] - logp) / n
    g_zh = p * (g_p - np.sum(p * g_p, axis=1, keepdims=True)) / USAGE_TAU
    radial = np.sum(g_zh * zh, axis=1, keepdims=True)
    return loss, (g_zh - radial * zh) / norms[:, None]


def emb_contrastive_loss(embeddings: np.ndarray,
                         batch: ContrastBatch) -> tuple[float, np.ndarray]:
    """Embedding contrastive loss: one same-leaf positive per query, the
    rest of the batch as negatives; the softmax denominator includes the
    positive.  Queries without a mate are skipped; an all-skipped batch
    is an error."""
    z = np.asarray(embeddings, dtype=np.float64)
    if not np.any(batch.emb_pos >= 0):
        raise InputError("no query has a same-leaf mate in this batch")
    [(loss, grad, _, _)] = _contrast_stack([z[:, None, :]], _emb_mask(batch),
                                           batch.tau)
    return loss, grad[:, 0, :]


def contrastive_terms(level_logits: np.ndarray, embeddings: np.ndarray,
                      batch: ContrastBatch, use_sid: bool = True,
                      use_emb: bool = True):
    """The training step's contrastive terms from one contrast stack, the
    L SID levels and the embedding level joined in one _infonce call:
    (L_sid, L_use, gradient w.r.t. the (n, L, K) logits, L_emb, gradient
    w.r.t. the embeddings).  Each term has the bits of its own function
    (mg_contrastive_loss, the code-usage term of the level-1 block,
    which reuses the stack's level-1 unit vectors, and
    emb_contrastive_loss);
    the logit gradient includes the usage term at USAGE_WEIGHT.  A term
    that is off, or the embedding term of a batch where no query has a
    mate, is 0.0 with a zero gradient."""
    parts, masks = [], []
    if use_sid:
        level_logits = np.asarray(level_logits, dtype=np.float64)
        if len(batch.level_masks) != level_logits.shape[1]:
            raise InputError("positive sets do not match level count")
        parts.append(level_logits)
        masks.append(batch.level_masks)
    use_emb = use_emb and bool(np.any(batch.emb_pos >= 0))
    if use_emb:
        parts.append(np.asarray(embeddings, dtype=np.float64)[:, None, :])
        masks.append(_emb_mask(batch))
    terms = (_contrast_stack(parts, np.concatenate(masks), batch.tau)
             if parts else [])
    if use_sid:
        l_sid, g_logits, zh, norms = terms[0]
        l_use, g_use = _code_usage(zh[0], norms[0])
        g_logits[:, 0, :] += USAGE_WEIGHT * g_use
    else:
        l_sid, l_use, g_logits = 0.0, 0.0, np.zeros(np.shape(level_logits))
    if use_emb:
        l_emb, g_emb, _, _ = terms[-1]
        g_emb = g_emb[:, 0, :]
    else:
        l_emb, g_emb = 0.0, np.zeros(np.shape(embeddings))
    return l_sid, l_use, g_logits, l_emb, g_emb


def total_loss(l_sid: float, l_emb: float, l_rec: float, lam: float) -> float:
    for name, v in (("l_sid", l_sid), ("l_emb", l_emb), ("l_rec", l_rec)):
        if not np.isfinite(v):
            raise NumericError(f"non-finite component {name}")
    return l_sid + l_emb + lam * l_rec


@dataclass(frozen=True)
class TrainConfig:
    lam: float = numkit.rule("number", ">= 0", default=0.1)
    tau: float = numkit.rule("number", "> 0", default=0.07)
    epochs: int = numkit.rule("int", ">= 0", default=50)
    batch_size: int = numkit.rule("int", ">= 2", default=64)
    seed: int = numkit.rule("int", ">= 0", default=0)
    lr: float = numkit.rule("number", "> 0", default=1e-3)
    L: int = numkit.rule("int", ">= 1", default=3)
    K: int = numkit.rule("int", ">= 1", default=16)
    d_h: int = numkit.rule("int", ">= 1", default=64)
    d_e: int = numkit.rule("int", ">= 1", default=32)
    d_r: int = numkit.rule("int", ">= 1", default=32)
    use_sid: bool = numkit.rule("bool", default=True)
    use_emb: bool = numkit.rule("bool", default=True)
    decoder_frozen_after_warmup: bool = numkit.rule("bool", default=True)
    decoder_warmup_epochs: int | None = numkit.rule("int", ">= 0", null=True,
                                                    default=None)

    def validate(self) -> None:
        numkit.check(self, "train")

    @property
    def warmup(self) -> int:
        if self.decoder_warmup_epochs is not None:
            return self.decoder_warmup_epochs
        return max(1, self.epochs // 2)


@dataclass
class LossReport:
    """Per-step losses.  L_total = L_sid + L_emb + lam * L_rec; L_use is
    the unweighted level-1 code-usage term, which training adds to the
    optimised objective at USAGE_WEIGHT but which L_total leaves out."""

    steps: list[tuple[float, float, float, float, float]] = field(
        default_factory=list)

    def record(self, l_sid, l_emb, l_rec, l_total, l_use):
        self.steps.append((float(l_sid), float(l_emb), float(l_rec),
                           float(l_total), float(l_use)))

    def save_csv(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["step", "L_sid", "L_emb", "L_rec", "L_total",
                        "L_use"])
            for i, row in enumerate(self.steps):
                w.writerow([i] + [f"{v:.9g}" for v in row])

    def epoch_means(self, steps_per_epoch: int) -> list[float]:
        totals = [r[3] for r in self.steps]
        return [float(np.mean(totals[i:i + steps_per_epoch]))
                for i in range(0, len(totals), steps_per_epoch)]


def train_unisid(catalog: ItemCatalog, config: TrainConfig
                 ) -> tuple[UniSidModel, ReconPipeline, LossReport]:
    """Joint training of the unified model and reconstruction pipeline.

    The optimised objective is L_total plus USAGE_WEIGHT times the
    code-usage term on the level-1 logit block.  The report records the
    usage term apart from L_total, which stays the sum of the
    contrastive, embedding and reconstruction terms.  The usage term and
    L_sid are off with use_sid=False.

    Deterministic given (catalog, config): seeded init, seeded epoch
    shuffles, fixed-order gradient accumulation, parameters kept on the
    float32 grid after every optimizer step.  Adam steps only the
    decoder weights that the training split's summaries reach
    (`summarizer.reached_rows`); every other decoder gradient is exactly
    zero, so the bits are those of stepping them all.  A step allocates
    no large array: recon_loss works in one run-long set of buffers, and
    once the decoder is frozen each batch's prefix sums are gathered by
    leaf from one table made from the frozen weights, which has the bits
    recon_loss would compute from each batch's targets.
    """
    config.validate()
    spec = catalog.spec
    model = unisid.init_model(spec.feature_dim,
                              UniSidConfig(config.L, config.K,
                                           config.d_h, config.d_e),
                              config.seed)
    vocab = summarizer.build_vocab(catalog.tree)
    pipeline = summarizer.init_pipeline(config.L, config.K, config.d_e,
                                        config.d_r, vocab, config.seed + 1)
    # a summary depends on the leaf only: one target per leaf
    leaf_targets = np.stack([
        summarizer.summarize(catalog.tree.path(leaf), catalog.tree, vocab)
        for leaf in range(catalog.spec.n_leaves)])
    leaves = catalog.labels[:, 2]
    targets = leaf_targets[leaves]
    train_ids = np.asarray(catalog.train_ids, dtype=np.int64)

    base = numkit.ParamStore([model.encoder, model.sid_head, model.emb_head,
                              pipeline.recon_head], config.lr)
    # Adam steps only the decoder weights the training summaries reach,
    # and recon_loss returns W0's gradient for those rows only
    w0_live = summarizer.reached_rows(targets[train_ids], pipeline)
    dec = numkit.ParamStore(
        [pipeline.decoder], config.lr,
        live=[w0_live[:, None]] + [True] * (len(pipeline.decoder.flat()) - 1))
    buffers = summarizer.ReconBuffers(
        pipeline, min(config.batch_size, len(train_ids)), w0_live)
    # the frozen decoder's prefix sums per leaf, made when it freezes
    prefix_table = None
    # at lam = 0 the reconstruction term's gradients are all zero, so its
    # backward pass is skipped
    rec_zeros = [np.zeros_like(p) for p in pipeline.recon_head.flat()]

    features = catalog.features_matrix()
    rng = np.random.default_rng(config.seed)
    report = LossReport()
    n_lk = config.L * config.K
    for epoch in range(config.epochs):
        train_decoder = (not config.decoder_frozen_after_warmup
                         or epoch < config.warmup) and config.lam > 0
        if not train_decoder and prefix_table is None:
            prefix_table = summarizer.prefix_sums(leaf_targets, pipeline)
        order = train_ids[rng.permutation(len(train_ids))]
        for start in range(0, len(order), config.batch_size):
            # one index array gathers the batch's features, targets and
            # positive sets
            ids = order[start:start + config.batch_size]
            if len(ids) < 2:
                continue
            fp = unisid.forward_batch(model, features[ids])
            cb = make_contrast_batch(catalog, ids, config.tau)
            l_sid, l_use, g_logits, l_emb, g_emb = contrastive_terms(
                fp.logits, fp.embedding, cb, config.use_sid, config.use_emb)

            h_rec, rcache = summarizer.recon_state(fp.logits, fp.embedding,
                                                   pipeline)
            # mode="clip" (the leaves are in range) lets take write into
            # the buffer without a buffer of its own
            prefix = None if prefix_table is None else np.take(
                prefix_table, leaves[ids], axis=0,
                out=buffers.prefix[:len(ids)], mode="clip")
            l_rec, g_h, dec_grads = summarizer.recon_loss(
                h_rec, targets[ids], pipeline, decoder_grads=train_decoder,
                input_grad=config.lam > 0, buffers=buffers, prefix=prefix)
            l_total = total_loss(l_sid, l_emb, l_rec, config.lam)

            g_logits_flat = g_logits.reshape(len(ids), n_lk)
            if config.lam > 0:
                rec_grads, g_rin = numkit.mlp_grad(
                    pipeline.recon_head, rcache, config.lam * g_h)
                g_logits_flat += g_rin[:, :n_lk]
                g_emb += g_rin[:, n_lk:]
            else:
                rec_grads = rec_zeros
            sid_grads, g_hidden = numkit.mlp_grad(model.sid_head,
                                                  fp.sid_cache, g_logits_flat)
            emb_grads, g_emb_in = numkit.mlp_grad(model.emb_head,
                                                  fp.emb_cache, g_emb)
            # the one-hot token path is non-differentiable; only the
            # hidden-state slice propagates to the encoder
            g_hidden = g_hidden + g_emb_in[:, :config.d_h]
            enc_grads, _ = numkit.mlp_grad(model.encoder, fp.enc_cache,
                                           g_hidden, input_grad=False)

            base.step(enc_grads + sid_grads + emb_grads + rec_grads)
            if train_decoder:
                for g in dec_grads:
                    g *= config.lam
                dec.step(dec_grads)

            report.record(l_sid, l_emb, l_rec, l_total, l_use)
    return model, pipeline, report
