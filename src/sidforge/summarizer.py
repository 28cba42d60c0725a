"""Deterministic summary stage plus the reconstruction pathway.

A fixed template maps an item's category path to a short token sequence
(the stand-in for an attribute summary), and a small head + per-position
decoder learns to reproduce that sequence from the SID logits and item
embedding.  The summary carries label-derived semantics (leaf identity,
latent trait tokens) that are absent from the continuous feature blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .catalog import CategoryTree
from .errors import CatalogError, ConfigurationError, InputError, ShapeError
from .numkit import MlpParams

SUMMARY_LEN = 8          # tokens per summary, end marker included
TRAIT_COUNT = 16
BOS_ID = 0
EOS_ID = 1
MAX_VOCAB = 128
DECODER_HIDDEN = 64      # width of the decoder's one hidden layer

_GLUE = ["for", "shoppers"]
_INDUSTRY = "industry:general-ecommerce"


@dataclass
class SummaryVocab:
    tokens: list[str]
    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        try:
            return self.index[token]
        except KeyError:
            raise CatalogError(f"unknown summary token {token!r}")


def build_vocab(tree: CategoryTree) -> SummaryVocab:
    tokens = ["<bos>", "<eos>"]
    tokens += [f"glue:{g}" for g in _GLUE]
    tokens.append(_INDUSTRY)
    tokens += [f"cat:{name}" for name in tree.names[1]]
    tokens += [f"trait:{i:02d}" for i in range(TRAIT_COUNT)]
    tokens += [f"content:{name}" for name in tree.names[3]]
    if len(tokens) > MAX_VOCAB:
        raise ConfigurationError(
            f"summary vocab size {len(tokens)} exceeds {MAX_VOCAB}; "
            "reduce the category tree")
    return SummaryVocab(tokens=tokens, index={t: i for i, t in enumerate(tokens)})


def vocab_size(branching: tuple[int, int, int]) -> int:
    """len(build_vocab(build_tree(branching))), without building it."""
    b1, b2, b3 = branching
    return 3 + len(_GLUE) + TRAIT_COUNT + b1 + b1 * b2 * b3


def trait_a(leaf: int) -> int:
    # affine map, injective mod 16, so sibling leaves get distinct traits
    return (leaf * 5 + 3) % TRAIT_COUNT


def trait_b(l2: int) -> int:
    return (l2 * 7 + 1) % TRAIT_COUNT


def summarize(labels, tree: CategoryTree, vocab: SummaryVocab) -> np.ndarray:
    """Template for the category path `labels` = (c1, c2, c3):
    content(c3), industry, level-1 name(c1), trait-A(c3), trait-B(c2),
    two glue tokens, end marker.  Length SUMMARY_LEN."""
    c1, c2, c3 = labels
    if not (0 <= c3 < len(tree.names[3]) and 0 <= c1 < len(tree.names[1])
            and 0 <= c2 < len(tree.names[2])):
        raise CatalogError(f"labels {tuple(labels)} not in tree")
    seq = [
        vocab.id_of(f"content:{tree.names[3][c3]}"),
        vocab.id_of(_INDUSTRY),
        vocab.id_of(f"cat:{tree.names[1][c1]}"),
        vocab.id_of(f"trait:{trait_a(c3):02d}"),
        vocab.id_of(f"trait:{trait_b(c2):02d}"),
        vocab.id_of(f"glue:{_GLUE[0]}"),
        vocab.id_of(f"glue:{_GLUE[1]}"),
        EOS_ID,
    ]
    return np.array(seq, dtype=np.int64)


@dataclass
class ReconPipeline:
    """recon_head: (L*K + d_e) -> d_r; decoder scores the next token from
    the conditioning state plus a fixed-length one-hot prefix encoding.

    Only the decoder's first layer sees the prefix, and a one-hot input
    picks one weight row per prefix token, so the first layer is applied
    as a row gather (see _first_layer) rather than to a dense one-hot."""

    recon_head: MlpParams
    decoder: MlpParams   # (d_r + SUMMARY_LEN * vocab) -> hidden -> vocab
    vocab: SummaryVocab
    d_r: int

    def __post_init__(self):
        v = len(self.vocab)
        expect = self.d_r + SUMMARY_LEN * v
        if self.decoder.in_dim != expect:
            raise ShapeError(
                f"decoder input dim {self.decoder.in_dim} != {expect}")
        if self.decoder.out_dim != v:
            raise ShapeError("decoder output dim must equal vocab size")
        if len(self.decoder.weights) != 2:
            raise ShapeError("decoder needs exactly one hidden layer")


def init_pipeline(L: int, K: int, d_e: int, d_r: int, vocab: SummaryVocab,
                  seed: int) -> ReconPipeline:
    rng = np.random.default_rng(seed)
    v = len(vocab)
    recon_head = numkit.mlp_init([L * K + d_e, d_r], rng)
    decoder = numkit.mlp_init([d_r + SUMMARY_LEN * v, DECODER_HIDDEN, v], rng)
    return ReconPipeline(recon_head=recon_head, decoder=decoder,
                         vocab=vocab, d_r=d_r)


def recon_state(logits: np.ndarray, emb: np.ndarray,
                pipeline: ReconPipeline) -> tuple[np.ndarray, list]:
    """h_rec = recon_head(concat(flattened logits, embedding)); the cache
    supports exact gradients back to both inputs."""
    logits = np.asarray(logits, dtype=np.float64)
    emb = np.atleast_2d(np.asarray(emb, dtype=np.float64))
    flat = logits.reshape(emb.shape[0], -1)
    x = np.concatenate([flat, emb], axis=1)
    return numkit.mlp_apply(pipeline.recon_head, x)


def _first_layer(h_rec: np.ndarray, pipeline: ReconPipeline):
    """Split the decoder's first layer.  Returns the pre-activation of the
    empty prefix, h_rec @ W0[:d_r] + b0 (n, hidden); the prefix rows of
    W0 as a (SUMMARY_LEN, vocab, hidden) view, where token k at position
    s adds prefix_rows[s, k] to every later position's pre-activation; and
    the remaining layers as one MLP."""
    dec = pipeline.decoder
    w0 = dec.weights[0]
    base = h_rec @ w0[:pipeline.d_r] + dec.biases[0]
    prefix_rows = w0[pipeline.d_r:].reshape(SUMMARY_LEN, len(pipeline.vocab),
                                            w0.shape[1])
    tail = MlpParams(dec.weights[1:], dec.biases[1:])
    return base, prefix_rows, tail


def _prefix_w0_rows(targets: np.ndarray, d_r: int, v: int) -> np.ndarray:
    """The decoder W0 row each prefix token of the summaries `targets`
    (n, SUMMARY_LEN) picks, (n, SUMMARY_LEN - 1): token k at position s
    is row d_r + s * v + k.  The last position is never a prefix."""
    return d_r + np.arange(SUMMARY_LEN - 1) * v + targets[:, :-1]


def reached_rows(targets: np.ndarray, pipeline: ReconPipeline) -> np.ndarray:
    """Mask of the decoder W0 rows that training on the summaries
    `targets` can give a nonzero gradient: the d_r conditioning rows and
    the prefix row of each of their tokens.  Every other W0 row's
    gradient from recon_loss is exactly zero."""
    rows = np.zeros(pipeline.decoder.in_dim, dtype=bool)
    rows[:pipeline.d_r] = True
    rows[_prefix_w0_rows(np.atleast_2d(targets), pipeline.d_r,
                         len(pipeline.vocab))] = True
    return rows


class ReconBuffers:
    """recon_loss's work arrays for batches of up to `rows` summaries, and
    the decoder W0 rows its gradient is returned for.

    `live_rows` masks those W0 rows, as reached_rows returns them.
    recon_loss returns the W0 gradient as their
    (n_live_rows, hidden) block, W0's live entries in storage order, which
    is what ParamStore.step takes for a W0 stored with the live mask
    `live_rows[:, None]`; `slots[r]` is row r's place in the block, -1
    for a row outside it.  The conditioning rows come first in W0 and are
    always live, so they are the block's first d_r rows.

    A training loop makes one set and passes it to every step.  Each call
    writes every buffer entry it reads before reading it, so the buffers
    change no bit.  They exist for the allocator: several of these arrays
    are above glibc's 128 KB mmap threshold, and made afresh in every step
    they had glibc trim the heap and grow it again, step after step:
    about 14,400 minor page faults in a 4-epoch (116-step) training run
    on the default config, against about 350 with the buffers."""

    def __init__(self, pipeline: ReconPipeline, rows: int,
                 live_rows: np.ndarray):
        w0 = pipeline.decoder.weights[0]
        hidden, v = w0.shape[1], len(pipeline.vocab)
        live_rows = np.asarray(live_rows, dtype=bool)
        if (live_rows.shape != w0.shape[:1]
                or not live_rows[:pipeline.d_r].all()):
            raise ShapeError("live rows must mask every W0 row and keep the "
                             "conditioning rows")
        self.rows = rows
        self.live_rows = live_rows
        self.slots = np.where(live_rows, np.cumsum(live_rows) - 1, -1)
        self.n_live = int(live_rows.sum())
        # the prefix sums, and in the backward pass the prefix rows'
        # gradients once the sums have been read
        self.prefix = np.empty((rows, SUMMARY_LEN - 1, hidden))
        self.pre = np.empty((rows, SUMMARY_LEN, hidden))
        self.logits = np.empty((rows * SUMMARY_LEN, v))
        self.g_act = np.empty((rows * SUMMARY_LEN, hidden))
        self.bins = np.empty((rows, SUMMARY_LEN - 1, hidden), dtype=np.int64)


def _checked_targets(targets, v: int) -> np.ndarray:
    targets = np.atleast_2d(np.asarray(targets, dtype=np.int64))
    if targets.shape[1] != SUMMARY_LEN:
        raise InputError(f"target length must be {SUMMARY_LEN}")
    if targets.min() < 0 or targets.max() >= v:
        raise InputError("target token out of vocabulary")
    return targets


def prefix_sums(targets: np.ndarray, pipeline: ReconPipeline,
                out: np.ndarray | None = None) -> np.ndarray:
    """What each summary position after the first adds to the decoder's
    empty-prefix pre-activation: (n, SUMMARY_LEN - 1, hidden), entry s
    the sum of the W0 prefix rows that tokens 0..s pick, added in
    position order (the order of np.cumsum).  Written into `out` if given.

    A summary depends on its leaf only, so once the decoder is frozen one
    table of these sums per leaf serves every batch: gathered by leaf,
    its rows are the bits this function gives the batch."""
    targets = _checked_targets(targets, len(pipeline.vocab))
    rows = _prefix_w0_rows(targets, pipeline.d_r, len(pipeline.vocab))
    # mode="clip" never clips (the rows are checked above) and lets take
    # write into `out` without a buffer of its own
    sums = np.take(pipeline.decoder.weights[0], rows, axis=0, out=out,
                   mode="clip")
    for s in range(1, SUMMARY_LEN - 1):
        sums[:, s] += sums[:, s - 1]
    return sums


def recon_loss(h_rec: np.ndarray, targets: np.ndarray,
               pipeline: ReconPipeline, buffers: ReconBuffers,
               decoder_grads: bool = True, input_grad: bool = True,
               prefix: np.ndarray | None = None):
    """Teacher-forced cross-entropy over all positions, averaged over the
    batch.  Returns (loss, grad w.r.t. h_rec, decoder gradients); with
    decoder_grads=False the decoder gradients are not computed and the
    third value is None, with input_grad=False the second value is None,
    and with both False no backward pass runs.

    The decoder gradients are [W0, b0, W1, b1], W0's as the block of the
    live rows of `buffers` (see ReconBuffers), which is the live-entry
    gradient ParamStore.step takes.  Every W0 row outside
    reached_rows(targets) has a gradient of exactly +0.0, so the block
    drops only zeros.  No returned array is a buffer.

    `buffers` are run-long work arrays, made once by a training loop so
    that no step allocates the large temporaries that had glibc trim and
    regrow its heap in every step; they keep every bit, since a call
    writes each entry it reads first.  `prefix` is prefix_sums(targets,
    pipeline), given by a caller that has it (train_unisid gathers it by
    leaf from one table once the decoder is frozen: the table's rows are
    the same sums, added in the same order); by default the call
    computes it.

    Position t's first-layer pre-activation is the empty-prefix one plus
    the prefix sum of the tokens before t; the identity output layer then
    runs once over all n * SUMMARY_LEN positions, as the matrix products
    mlp_apply and mlp_grad make, with mlp_apply's finite check.  The
    backward prefix sums run one position at a time, and one bincount
    over the live-row slots scatters the prefix-row gradients in batch
    order, so every sum keeps the order of np.cumsum and np.add.at."""
    h_rec = np.atleast_2d(np.asarray(h_rec, dtype=np.float64))
    v = len(pipeline.vocab)
    targets = _checked_targets(targets, v)
    n = h_rec.shape[0]
    if n > buffers.rows:
        raise ShapeError(f"{n} summaries exceed the {buffers.rows} rows "
                         "of the buffers")
    if prefix is None:
        prefix = prefix_sums(targets, pipeline, out=buffers.prefix[:n])
    base, _, _ = _first_layer(h_rec, pipeline)
    w0, w1 = pipeline.decoder.weights
    hidden = w0.shape[1]
    pre = buffers.pre[:n]
    pre[:, 0] = base
    np.add(base[:, None, :], prefix, out=pre[:, 1:])
    # the ReLU in place: it is positive exactly where the pre-activation
    # is, so the backward mask `pre > 0.0` below keeps its bits
    np.maximum(pre, 0.0, out=pre)
    act = pre.reshape(n * SUMMARY_LEN, hidden)
    logits = np.matmul(act, w1, out=buffers.logits[:n * SUMMARY_LEN])
    logits += pipeline.decoder.biases[1]
    if not np.logical_and.reduce(np.isfinite(logits), axis=None):
        raise NumericError("non-finite MLP output")
    tok = targets.reshape(-1)
    at = np.arange(n * SUMMARY_LEN)
    target_logits = logits[at, tok]
    # the softmax runs in the logits buffer: the backward of the identity
    # output layer does not read it
    m = logits.max(axis=1, keepdims=True)
    soft = np.subtract(logits, m, out=logits)
    np.exp(soft, out=soft)
    z = soft.sum(axis=1)
    loss = float(np.sum(m[:, 0] + np.log(z) - target_logits)) / n
    if not (decoder_grads or input_grad):
        return loss, None, None
    soft /= z[:, None]
    soft[at, tok] -= 1.0
    soft /= n
    g_pre = np.matmul(soft, w1.T, out=buffers.g_act[:n * SUMMARY_LEN])
    g_pre = g_pre.reshape(pre.shape)
    g_pre *= pre > 0.0
    g_base = g_pre.sum(axis=1)
    g_h = g_base @ w0[:pipeline.d_r].T if input_grad else None
    if not decoder_grads:
        return loss, g_h, None
    tail_grads = [act.T @ soft, soft.sum(axis=0)]
    # the prefix row token s picks feeds positions s + 1 .. S - 1: its
    # gradient sums g_pre over them, from the last position down
    g_prefix = buffers.prefix[:n]
    g_prefix[:, -1] = g_pre[:, -1]
    for s in range(SUMMARY_LEN - 3, -1, -1):
        np.add(g_pre[:, s + 1], g_prefix[:, s + 1], out=g_prefix[:, s])
    slots = buffers.slots[_prefix_w0_rows(targets, pipeline.d_r, v)]
    if slots.min() < 0:
        raise InputError("a summary token picks a W0 row outside the "
                         "live rows")
    # live-block entry (slot, j) collects its rows in batch order
    bins = np.add((slots * hidden)[:, :, None], np.arange(hidden),
                  out=buffers.bins[:n])
    g_w0 = np.bincount(bins.ravel(), weights=g_prefix.ravel(),
                       minlength=buffers.n_live * hidden)
    g_w0 = g_w0.reshape(buffers.n_live, hidden)
    np.matmul(h_rec.T, g_base, out=g_w0[:pipeline.d_r])
    return loss, g_h, [g_w0, g_base.sum(axis=0)] + tail_grads


def decode_summary(h_rec: np.ndarray, pipeline: ReconPipeline) -> np.ndarray:
    """Greedy teacher-free decoding; stops at the end marker or
    SUMMARY_LEN tokens.  Each step adds its token's prefix row to a
    running first-layer pre-activation."""
    h_rec = np.atleast_2d(np.asarray(h_rec, dtype=np.float64))
    n = h_rec.shape[0]
    pre, prefix_rows, tail = _first_layer(h_rec, pipeline)
    out = np.empty((n, SUMMARY_LEN), dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    for t in range(SUMMARY_LEN):
        logits, _ = numkit.mlp_apply(tail, np.maximum(pre, 0.0))
        tok = np.argmax(logits, axis=1)
        tok[done] = EOS_ID
        out[:, t] = tok
        pre = pre + prefix_rows[t, tok]
        done |= tok == EOS_ID
    return out


def summary_text(tokens: np.ndarray, vocab: SummaryVocab) -> str:
    out = []
    for t in tokens:
        out.append(vocab.tokens[int(t)])
        if t == EOS_ID:
            break
    return " ".join(out)
