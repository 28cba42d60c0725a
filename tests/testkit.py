"""Helpers used only by the tests: a finite-difference gradient checker
that steps around kinks, the one-hot prefix vector of a partial SID, a
row-wise log-softmax, the per-SID collision counter, points at float32
near ties, the nearest centroid of each point, and the library's
private kernels behind one-call forms: the code-usage loss of a logit
block, and the next-SID history vectors and loss gradients of a
sequence array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sidforge import evalsuite, objectives
from sidforge.numkit import CentroidScreen


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: int
    worst_coord: int
    passed: bool
    redraws: int = 0


def _rel(a: float, b: float) -> float:
    """|a - b| scaled by max(|a|, |b|, 1), so near-zero values are judged
    absolutely."""
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _gap(lo_minus: float, lo: float, lo_plus: float, h: float) -> float:
    """Forward minus backward difference: h f'' + O(h^3) for a smooth f."""
    return (lo_plus - lo) / h - (lo - lo_minus) / h


def finite_diff_check(loss_and_grad, params: list[np.ndarray],
                      h: float = 1e-4, tolerance: float = 1e-4,
                      max_coords_per_param: int | None = None,
                      rng: np.random.Generator | None = None,
                      max_redraws: int = 10) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    `loss_and_grad(params)` must return (scalar loss, gradient list).
    Relative error uses max(|fd|, |grad|, 1) as the scale so near-zero
    coordinates are judged absolutely.

    With `max_coords_per_param`, each larger parameter is checked at that
    many coordinates drawn from `rng`, and a drawn coordinate with a kink
    (a ReLU switching, say) inside +-h is replaced by a fresh draw from
    the parameter's untried coordinates.  A kink whose slopes differ by J
    moves the central difference by up to J/2 and the forward minus
    backward difference by up to J, so only a gap above twice the
    tolerance can fail the check.  Smooth curvature opens that gap too,
    by h f'', but then the gap at h/2 is half the gap at h; a kink's is
    not, and that tells the two apart.  At most `max_redraws` coordinates
    are replaced per call; past that, or with nothing left to draw, a
    kinked coordinate is checked as it is.  The decision reads only loss
    values, so a wrong gradient cannot be redrawn away.
    """
    loss0, grads = loss_and_grad(params)
    worst = (0.0, -1, -1)
    redraws = 0

    def loss_at(flat, ci, value):
        flat[ci] = value
        return loss_and_grad(params)[0]

    for pi, p in enumerate(params):
        n = p.size
        sampled = max_coords_per_param is not None and n > max_coords_per_param
        if sampled:
            if rng is None:
                rng = np.random.default_rng(0)
            queue = [int(c) for c in rng.choice(n, size=max_coords_per_param,
                                                replace=False)]
        else:
            queue = list(range(n))
        tried = set(queue)
        flat = p.reshape(-1)
        for ci in queue:  # grows by one per redraw
            orig = flat[ci]
            lo_plus = loss_at(flat, ci, orig + h)
            lo_minus = loss_at(flat, ci, orig - h)
            scale = max(abs(lo_plus - loss0), abs(loss0 - lo_minus), h) / h
            gap = _gap(lo_minus, loss0, lo_plus, h)
            if (sampled and redraws < max_redraws and len(tried) < n
                    and abs(gap) > 2 * tolerance * scale):
                half = _gap(loss_at(flat, ci, orig - h / 2), loss0,
                            loss_at(flat, ci, orig + h / 2), h / 2)
                if abs(gap - 2 * half) > tolerance * scale:
                    flat[ci] = orig
                    untried = np.setdiff1d(np.arange(n), list(tried))
                    new = int(untried[rng.integers(untried.size)])
                    queue.append(new)
                    tried.add(new)
                    redraws += 1
                    continue
            flat[ci] = orig
            fd = (lo_plus - lo_minus) / (2 * h)
            rel = _rel(fd, grads[pi].reshape(-1)[ci])
            if rel > worst[0]:
                worst = (rel, pi, ci)
    return GradCheckReport(max_rel_error=worst[0], worst_param=worst[1],
                           worst_coord=worst[2], passed=worst[0] < tolerance,
                           redraws=redraws)


def prefix_onehot(prefix: tuple[int, ...], lvl: int, K: int) -> np.ndarray:
    """The lvl*K one-hot blocks of a decoded SID prefix: the next-SID
    scorer input after the history vector."""
    v = np.zeros(lvl * K)
    for j, t in enumerate(prefix):
        v[j * K + t] = 1.0
    return v


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, shifted by the row max: the expression whose
    bits `evalsuite.beam_decode` computes in place."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def collision_stats_oracle(sid_table: dict[int, tuple]) -> dict:
    """The Python counter that `unisid.collision_stats` replaced: counts
    each full SID in a dict and each level's prefixes in a set."""
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


def near_float32_ties(r, c, n, max_ulps):
    """n points, each on the bisector of a random pair of rows of the unit
    scale `c`, then moved toward one of the two until its squared
    distances to them differ by 1 to `max_ulps` float32 ulps of their
    size: closer than the float32 screen can tell apart, not closer than
    the float64 broadcast form can."""
    k, d = c.shape
    i, j = r.integers(0, k, size=n), r.integers(0, k, size=n)
    u = c[i] - c[j]
    length = np.sqrt(np.sum(u * u, axis=1, keepdims=True))
    unit = u / np.maximum(length, 1e-12)
    w = r.normal(size=(n, d))
    w -= np.sum(w * unit, axis=1, keepdims=True) * unit
    x = (c[i] + c[j]) / 2 + 0.1 * w
    dist = np.sum((x - c[i]) ** 2, axis=1, keepdims=True)
    ulps = r.integers(1, max_ulps + 1, size=(n, 1)) * r.choice([-1, 1],
                                                              size=(n, 1))
    # moving by t along u changes the squared-distance gap by 2 |u| t
    return x + ulps * 2.0 ** -24 * dist / np.maximum(length, 1e-12) * unit


def nearest_centroid(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid for each row of `points`, exactly as
    `argmin(np.sum((x - c) ** 2, axis=-1))` gives it, from a one-call
    screen of both sets."""
    return CentroidScreen(points, centroids).nearest(centroids)


def code_usage_loss(logits: np.ndarray) -> tuple[float, np.ndarray]:
    """The code-usage term of one (n, K) logit block and its gradient,
    as `objectives.contrastive_terms` adds it for SID level 1."""
    return objectives._code_usage(*objectives._normalize_rows(
        np.asarray(logits, dtype=np.float64)))


def history_vectors(model, sequences, sid_table: dict[int, tuple]
                    ) -> np.ndarray:
    """Mean over the last H history items of their summed level-token
    embeddings, one row per sequence."""
    return evalsuite._histories(model, sequences, sid_table)[0]


def next_sid_loss_grads(model, sequences, sid_table: dict[int, tuple]):
    """Teacher-forced cross-entropy over all L levels of the target SID,
    averaged over the (n, T) `sequences`.  Returns (loss, table grad,
    scorer grads)."""
    return evalsuite._loss_grads(model, *evalsuite._tail_rows(
        sequences, sid_table, model.config))
