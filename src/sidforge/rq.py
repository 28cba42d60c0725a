"""Two-stage residual-quantization baselines: RQ-KMeans over fixed
embeddings, and an RQ-VAE with straight-through gradients and
exponential-moving-average codebook updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import ConfigurationError, NumericError, ShapeError
from .numkit import MlpParams


@dataclass
class Codebook:
    """levels[l] holds K codewords of dimension d: shape (L, K, d)."""

    levels: np.ndarray

    def __post_init__(self):
        if self.levels.ndim != 3:
            raise ShapeError("codebook must be (L, K, d)")
        if not np.all(np.isfinite(self.levels)):
            raise NumericError("non-finite codeword")

    @property
    def L(self) -> int:
        return self.levels.shape[0]

    @property
    def K(self) -> int:
        return self.levels.shape[1]

    @property
    def dim(self) -> int:
        return self.levels.shape[2]


def rq_kmeans_fit(embeddings: np.ndarray, L: int, K: int, seed: int,
                  iterations: int = 50) -> Codebook:
    """Level 1 clusters the embeddings; each further level clusters the
    residuals left by the previous level's assigned centroids."""
    numkit.require("L", L, "int", ">= 1")
    numkit.require("K", K, "int", ">= 1")
    numkit.require("seed", seed, "int", ">= 0")
    numkit.require("iterations", iterations, "int", ">= 0")
    x = np.asarray(embeddings, dtype=np.float64)
    levels = np.empty((L, K, x.shape[1]), dtype=np.float64)
    residual = x
    for lvl in range(L):
        try:
            centroids, assign = numkit.kmeans_fit(residual, K,
                                                  iterations=iterations,
                                                  seed=seed + lvl)
        except ConfigurationError as e:
            raise ConfigurationError(f"level {lvl + 1}: {e}") from e
        levels[lvl] = centroids
        residual = residual - centroids[assign]
    return Codebook(levels=levels)


def rq_assign_batch(codebook: Codebook, x: np.ndarray) -> np.ndarray:
    """(n, d) -> (n, L) token matrix: greedy per-level nearest-codeword
    assignment with residual update.

    Each token is exactly the index `argmin(np.sum((r - c) ** 2, axis=-1))`
    gives for the level's residual r, lowest index on ties: one
    `numkit.CentroidScreen` of the residuals and codewords per level.
    Raises ShapeError for a shape other than (n, d) and NumericError for
    a non-finite row.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != codebook.dim:
        raise ShapeError(f"input shape {x.shape} != (n, {codebook.dim})")
    finite = np.isfinite(x)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise NumericError(f"non-finite input row {row}")
    tokens = np.empty((x.shape[0], codebook.L), dtype=np.int64)
    r = x.copy()
    for lvl, words in enumerate(codebook.levels):
        tokens[:, lvl] = numkit.CentroidScreen(r, words).nearest(words)
        r -= words[tokens[:, lvl]]
    return tokens


def quantize(codebook: Codebook, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum of assigned codewords per point; returns (q, tokens)."""
    tokens = rq_assign_batch(codebook, x)
    q = np.zeros_like(np.asarray(x, dtype=np.float64))
    for lvl in range(codebook.L):
        q += codebook.levels[lvl][tokens[:, lvl]]
    return q, tokens


@dataclass(frozen=True)
class RqVaeConfig:
    L: int = numkit.rule("int", ">= 1", default=3)
    K: int = numkit.rule("int", ">= 1", default=16)
    d: int = numkit.rule("int", ">= 1", default=32)
    beta: float = numkit.rule("number", ">= 0", default=0.25)
    epochs: int = numkit.rule("int", ">= 0", default=20)
    batch_size: int = numkit.rule("int", ">= 1", default=64)
    lr: float = numkit.rule("number", "> 0", default=1e-3)
    seed: int = numkit.rule("int", ">= 0", default=0)
    ema_decay: float = numkit.rule("number", "> 0", "< 1", default=0.99)
    hidden: int = numkit.rule("int", ">= 1", default=64)

    def validate(self) -> None:
        numkit.check(self, "rqvae")


@dataclass
class RqVaeModel:
    encoder: MlpParams
    decoder: MlpParams
    codebook: Codebook
    beta: float


def rq_vae_loss_grads(model: RqVaeModel, x: np.ndarray):
    """One training-step loss with straight-through gradients.

    loss = mean ||x - dec(q(enc(x)))||^2 + beta * mean sum_l ||r^{l+1}||^2
    with the quantization treated as identity for the reconstruction
    gradient and the codewords treated as constants for the commitment
    term.  Returns (loss, enc grads, dec grads, z, tokens).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    z, enc_cache = numkit.mlp_apply(model.encoder, x)
    q, tokens = quantize(model.codebook, z)
    xhat, dec_cache = numkit.mlp_apply(model.decoder, q)
    recon = float(np.mean(np.sum((x - xhat) ** 2, axis=1)))
    # commitment: residual after each level, codewords stop-gradiented
    commit = 0.0
    g_commit = np.zeros_like(z)
    r = z.copy()
    for lvl in range(model.codebook.L):
        r = r - model.codebook.levels[lvl][tokens[:, lvl]]
        commit += float(np.mean(np.sum(r ** 2, axis=1)))
        g_commit += 2.0 * r / n
    loss = recon + model.beta * commit
    dec_grads, g_q = numkit.mlp_grad(model.decoder, dec_cache,
                                     2.0 * (xhat - x) / n)
    g_z = g_q + model.beta * g_commit  # straight-through copy
    enc_grads, _ = numkit.mlp_grad(model.encoder, enc_cache, g_z,
                                   input_grad=False)
    return loss, enc_grads, dec_grads, z, tokens


def _ema_update(codebook: Codebook, z: np.ndarray, tokens: np.ndarray,
                counts: np.ndarray, sums: np.ndarray, decay: float) -> None:
    """EMA codeword update, level by level over the level's residual
    inputs.  A codeword whose decayed count is 1e-8 or less keeps its
    value."""
    K, d = codebook.K, codebook.dim
    cols = np.arange(d)
    r = z.copy()
    for lvl in range(codebook.L):
        tok = tokens[:, lvl]
        # each code's rows added from 0.0 in row order, as np.add.at adds
        # them (and r[tok == k].sum(axis=0) for d >= 2)
        batch_sums = np.bincount((tok[:, None] * d + cols).ravel(),
                                 weights=r.ravel(),
                                 minlength=K * d).reshape(K, d)
        counts[lvl] = (decay * counts[lvl]
                       + (1 - decay) * np.bincount(tok, minlength=K))
        sums[lvl] = decay * sums[lvl] + (1 - decay) * batch_sums
        live = counts[lvl] > 1e-8
        codebook.levels[lvl, live] = sums[lvl, live] / counts[lvl, live, None]
        r = r - codebook.levels[lvl][tok]


def rq_vae_fit(features: np.ndarray, config: RqVaeConfig
               ) -> tuple[RqVaeModel, list[float]]:
    """Trains the autoencoder by gradient descent and the codebooks by
    EMA; codebooks are initialized from RQ-KMeans on the first encodings.
    Deterministic given (features, config)."""
    config.validate()
    x = np.asarray(features, dtype=np.float64)
    rng = np.random.default_rng(config.seed)
    encoder = numkit.mlp_init([x.shape[1], config.hidden, config.d], rng)
    decoder = numkit.mlp_init([config.d, config.hidden, x.shape[1]], rng)
    z0, _ = numkit.mlp_apply(encoder, x)
    codebook = rq_kmeans_fit(z0, config.L, config.K, seed=config.seed)
    model = RqVaeModel(encoder=encoder, decoder=decoder,
                       codebook=codebook, beta=config.beta)

    store = numkit.ParamStore([encoder, decoder], config.lr)
    counts = np.ones((config.L, config.K), dtype=np.float64)
    sums = codebook.levels.copy()
    losses = []
    for epoch in range(config.epochs):
        perm = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], config.batch_size):
            batch = x[perm[start:start + config.batch_size]]
            loss, enc_g, dec_g, z, tokens = rq_vae_loss_grads(model, batch)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite RQ-VAE loss at epoch {epoch}, step "
                    f"{start // config.batch_size}")
            store.step(enc_g + dec_g)
            _ema_update(model.codebook, z, tokens, counts, sums,
                        config.ema_decay)
            losses.append(float(loss))
    return model, losses
