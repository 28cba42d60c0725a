"""Unified end-to-end SID generator: a small feed-forward encoder pools
item features into one hidden state, a SID head emits L blocks of K
logits (token = per-block argmax, ties to the lowest index), and an
embedding head conditions on the hidden state concatenated with the hard
one-hots of the generated tokens.  No gradient flows through the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .catalog import ItemCatalog
from .errors import InputError, NumericError, ShapeError
from .numkit import MlpParams


@dataclass(frozen=True)
class UniSidConfig:
    L: int = 3
    K: int = 16
    d_h: int = 64
    d_e: int = 32


@dataclass
class UniSidModel:
    encoder: MlpParams   # feature dim -> d_h
    sid_head: MlpParams  # d_h -> L*K
    emb_head: MlpParams  # d_h + L*K -> d_e
    config: UniSidConfig

    def __post_init__(self):
        c = self.config
        if self.sid_head.out_dim != c.L * c.K:
            raise ShapeError("sid_head output dim must be L*K")
        if self.emb_head.in_dim != c.d_h + c.L * c.K:
            raise ShapeError("emb_head input dim must be d_h + L*K")
        if self.emb_head.out_dim != c.d_e:
            raise ShapeError("emb_head output dim must be d_e")


def init_model(feature_dim: int, config: UniSidConfig,
               seed: int) -> UniSidModel:
    rng = np.random.default_rng(seed)
    c = config
    encoder = numkit.mlp_init([feature_dim, c.d_h, c.d_h], rng)
    sid_head = numkit.mlp_init([c.d_h, c.L * c.K], rng)
    emb_head = numkit.mlp_init([c.d_h + c.L * c.K, c.d_e], rng)
    return UniSidModel(encoder=encoder, sid_head=sid_head,
                       emb_head=emb_head, config=config)


def assign_sid(logits: np.ndarray) -> np.ndarray:
    """Per-block argmax over (L, K) logits; ties go to the lowest index."""
    logits = np.asarray(logits, dtype=np.float64)
    if np.isnan(logits).any():
        raise NumericError("NaN in SID logits")
    return np.argmax(logits, axis=-1).astype(np.int64)


def tokens_onehot(tokens: np.ndarray, K: int) -> np.ndarray:
    """(n, L) integer tokens -> (n, L*K) concatenated one-hots."""
    n, L = tokens.shape
    out = np.zeros((n, L * K), dtype=np.float64)
    rows = np.repeat(np.arange(n), L)
    cols = (np.arange(L) * K)[None, :] + tokens
    out[rows, cols.reshape(-1)] = 1.0
    return out


@dataclass
class ForwardPass:
    """One batch's forward pass.  Without caches only `tokens` and
    `embedding` are kept; the other fields are None."""

    hidden: np.ndarray | None      # (n, d_h)
    logits: np.ndarray | None      # (n, L, K)
    tokens: np.ndarray             # (n, L)
    embedding: np.ndarray          # (n, d_e)
    enc_cache: list | None
    sid_cache: list | None
    emb_cache: list | None


def forward_batch(model: UniSidModel, x: np.ndarray,
                  caches: bool = True) -> ForwardPass:
    """Encoder, SID head and embedding head over the batch `x`.  Training
    keeps the hidden state, logits and each MLP's cache for its backward
    pass.  With caches=False (catalog inference) each MLP's cache is
    dropped on return, and the hidden state and logits once the
    embedding head's input is built, so nothing is held for a backward
    pass that never runs; tokens and embedding have the same bits."""
    def apply(mlp: MlpParams, inp: np.ndarray):
        out, cache = numkit.mlp_apply(mlp, inp)
        return out, cache if caches else None

    c = model.config
    hidden, enc_cache = apply(model.encoder, x)
    flat, sid_cache = apply(model.sid_head, hidden)
    logits = flat.reshape(-1, c.L, c.K)
    tokens = assign_sid(logits)
    emb_in = np.concatenate([hidden, tokens_onehot(tokens, c.K)], axis=1)
    if not caches:
        hidden = logits = flat = None
    emb, emb_cache = apply(model.emb_head, emb_in)
    return ForwardPass(hidden=hidden, logits=logits, tokens=tokens,
                       embedding=emb, enc_cache=enc_cache,
                       sid_cache=sid_cache, emb_cache=emb_cache)


def embed_batch(model: UniSidModel, x: np.ndarray) -> np.ndarray:
    return forward_batch(model, x, caches=False).embedding


def token_stats(tokens: np.ndarray) -> dict:
    """Fraction of the (n, L) token rows that share their full SID with
    another row, plus distinct prefix counts per level.  The rows are
    sorted lexicographically, so equal prefixes sit next to each other:
    a row starts a new level-l prefix where it differs from the row
    before in one of its first l + 1 tokens."""
    n, L = tokens.shape
    if not n:
        return {"collision_rate": 0.0, "distinct_prefixes": []}
    new = _prefix_changes(tokens)
    # a new full SID is a new last-level prefix; with L = 0 all rows share
    # the empty one
    full = new[:, -1] if L else np.zeros(n - 1, dtype=bool)
    starts = np.flatnonzero(np.r_[True, full])
    sizes = np.diff(np.r_[starts, n])
    return {"collision_rate": int(sizes[sizes > 1].sum()) / n,
            "distinct_prefixes": (1 + new.sum(axis=0)).tolist()}


def _prefix_changes(tokens: np.ndarray) -> np.ndarray:
    """(n - 1, L) bool over the lexicographically sorted rows: entry
    (i, l) is whether row i + 1 starts a new level-l prefix."""
    rows = tokens[np.lexsort(tokens.T[::-1])] if tokens.shape[1] else tokens
    return np.logical_or.accumulate(rows[1:] != rows[:-1], axis=1)


def collision_stats(sid_table: dict[int, tuple]) -> dict:
    """`token_stats` of a SID table; InputError unless every SID has the
    same length."""
    lengths = set(map(len, sid_table.values()))
    if len(lengths) > 1:
        raise InputError(f"SIDs differ in length: {sorted(lengths)}")
    (L,) = lengths or {0}
    tokens = np.array(list(sid_table.values()), dtype=np.int64)
    return token_stats(tokens.reshape(len(sid_table), L))


def token_table(tokens: np.ndarray) -> dict[int, tuple]:
    """(n, L) tokens of the catalog rows -> SID table keyed by item id."""
    return dict(enumerate(map(tuple, tokens.tolist())))


def assign_catalog(model: UniSidModel,
                   catalog: ItemCatalog) -> tuple[dict[int, tuple], dict]:
    """Full-catalog SID assignment plus collision statistics.  Runs the
    encoder and the SID head only, the two `mlp_apply` calls whose output
    `forward_batch` turns into tokens, so the tokens have its bits; the
    embedding head's output would be dropped."""
    x = catalog.features_matrix()
    if x.shape[1] != model.encoder.in_dim:
        raise ShapeError(
            f"catalog feature dim {x.shape[1]} != encoder input "
            f"{model.encoder.in_dim}")
    c = model.config
    hidden = numkit.mlp_apply(model.encoder, x)[0]
    flat = numkit.mlp_apply(model.sid_head, hidden)[0]
    tokens = assign_sid(flat.reshape(-1, c.L, c.K))
    return token_table(tokens), token_stats(tokens)
