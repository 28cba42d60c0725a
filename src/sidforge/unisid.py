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
from .errors import NumericError, ShapeError
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


def collision_stats(sid_table: dict[int, tuple]) -> dict:
    """Fraction of items sharing their full SID, plus distinct prefix
    counts per level."""
    if not sid_table:
        return {"collision_rate": 0.0, "distinct_prefixes": []}
    seqs = list(sid_table.values())
    L = len(seqs[0])
    counts: dict[tuple, int] = {}
    for s in seqs:
        counts[tuple(s)] = counts.get(tuple(s), 0) + 1
    colliding = sum(c for c in counts.values() if c > 1)
    distinct = [len({tuple(s[:l + 1]) for s in seqs}) for l in range(L)]
    return {"collision_rate": colliding / len(seqs),
            "distinct_prefixes": distinct}


def token_table(tokens: np.ndarray) -> dict[int, tuple]:
    """(n, L) tokens of the catalog rows -> SID table keyed by item id."""
    return dict(enumerate(map(tuple, tokens.tolist())))


def assign_catalog(model: UniSidModel,
                   catalog: ItemCatalog) -> tuple[dict[int, tuple], dict]:
    """Full-catalog SID assignment plus collision statistics."""
    x = catalog.features_matrix()
    if x.shape[1] != model.encoder.in_dim:
        raise ShapeError(
            f"catalog feature dim {x.shape[1]} != encoder input "
            f"{model.encoder.in_dim}")
    table = token_table(forward_batch(model, x, caches=False).tokens)
    return table, collision_stats(table)
