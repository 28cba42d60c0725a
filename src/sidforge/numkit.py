"""Minimal deterministic numeric kernel: dense MLPs with hand-written
gradients, a bias-corrected adaptive-moment optimizer over flat parameter
stores, k-means++-seeded k-means, and the rules of config fields.

All functions are pure with respect to (inputs, seed); ties in argmax /
nearest-centroid are always broken toward the lowest index.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError


@dataclass
class MlpParams:
    """A feed-forward net: weights[i] is (fan_in, fan_out) and biases[i]
    is (fan_out,).  Every hidden layer is ReLU and the final layer is
    identity."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ShapeError("layer lists must be nonempty, of equal length")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ShapeError(f"bad layer shapes {w.shape} / {b.shape}")
        for wa, wb in zip(self.weights, self.weights[1:]):
            if wa.shape[1] != wb.shape[0]:
                raise ShapeError("consecutive layer dims do not chain")

    @property
    def activations(self) -> list[str]:
        """Each layer's activation, as checkpoints record it."""
        return ["relu"] * (len(self.weights) - 1) + ["identity"]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def flat(self) -> list[np.ndarray]:
        """Parameter arrays in declared order: w0, b0, w1, b1, ..."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def set_flat(self, arrays: list[np.ndarray]) -> None:
        n = len(self.weights)
        if len(arrays) != 2 * n:
            raise ShapeError("wrong number of parameter arrays")
        for i in range(n):
            if arrays[2 * i].shape != self.weights[i].shape:
                raise ShapeError("weight shape mismatch")
            if arrays[2 * i + 1].shape != self.biases[i].shape:
                raise ShapeError("bias shape mismatch")
            self.weights[i] = arrays[2 * i]
            self.biases[i] = arrays[2 * i + 1]


def quantize_f32(x: np.ndarray) -> np.ndarray:
    """Round to the nearest float32 value (kept as float64).

    Trained parameters live on the float32 grid so binary checkpoints
    (stored as little-endian float32) round-trip bit-exactly.
    """
    return np.asarray(x, dtype=np.float32).astype(np.float64)


def mlp_init(dims: list[int], rng: np.random.Generator) -> MlpParams:
    """Uniform +-1/sqrt(fan_in) init, quantized to the float32 grid."""
    weights, biases = [], []
    for din, dout in zip(dims, dims[1:]):
        bound = 1.0 / np.sqrt(din)
        weights.append(quantize_f32(rng.uniform(-bound, bound, size=(din, dout))))
        biases.append(quantize_f32(rng.uniform(-bound, bound, size=dout)))
    return MlpParams(weights, biases)


def mlp_apply(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Forward pass over a batch (n, in_dim).  Returns (output, cache);
    the cache holds (layer input, layer output) per layer, which is all
    exact gradients need.  Each hidden ReLU runs in place on its
    pre-activation, so a hidden layer is held once, activated; the
    output layer is identity, so its entry is its pre-activation."""
    x = np.asarray(x, dtype=np.float64)
    weights, biases = params.weights, params.biases
    if x.ndim != 2 or x.shape[1] != weights[0].shape[0]:
        raise ShapeError(f"input shape {x.shape} != (n, "
                         f"{weights[0].shape[0]})")
    cache = []
    h = x
    last = len(weights) - 1
    for i, w in enumerate(weights):
        out = h @ w
        out += biases[i]  # in place: the same bits as h @ w + b
        if i < last:
            np.maximum(out, 0.0, out=out)
        cache.append((h, out))
        h = out
    # the reduction `.all()` wraps, without its Python frame
    if not np.logical_and.reduce(np.isfinite(h), axis=None):
        raise NumericError("non-finite MLP output")
    return h, cache


def mlp_grad(params: MlpParams, cache: list, upstream: np.ndarray,
             input_grad: bool = True
             ) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Backward pass.  Returns (flat parameter gradients matching
    params.flat() order, gradient w.r.t. the input batch); with
    input_grad=False the first layer's `g @ w.T` is skipped and the
    second value is None.

    The final layer is identity, so `upstream` is never masked; every
    gradient masked is one made here (`g @ w.T`).  A ReLU output is
    positive exactly where its pre-activation is, so masking in place by
    the cached output gives the bits of `g * (pre > 0.0)`."""
    if len(cache) != len(params.weights):
        raise ShapeError("cache does not match network depth")
    g = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
    last = len(params.weights) - 1
    grads: list[np.ndarray] = [None] * (2 * len(params.weights))
    for i in range(last, -1, -1):
        inp, out = cache[i]
        if i < last:
            g *= out > 0.0
        grads[2 * i] = inp.T @ g
        grads[2 * i + 1] = g.sum(axis=0)
        if i or input_grad:
            g = g @ params.weights[i].T
    return grads, (g if input_grad else None)


# Adam's decay rates and denominator offset (Kingma & Ba 2015)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adam_step(store: ParamStore) -> None:
    """One bias-corrected Adam update of `store`'s live entries from
    `store.grad`, in place, rounded to the float32 grid.  The moments and
    every term live in the store's work vectors.  Each in-place step
    keeps the operands and association of the textbook expressions
    (BETA1 * m + (1 - BETA1) * g, ..., p - lr * mhat / (sqrt(vhat) + EPS)),
    so the bits match them.  A non-finite gradient entry raises
    NumericError before any moment changes."""
    g, m, v, tmp, den = store.grad, store.m, store.v, store.tmp, store.den
    if not np.logical_and.reduce(np.isfinite(g, out=store.finite), axis=None):
        raise NumericError("non-finite gradient")
    store.t += 1
    t = store.t
    m *= BETA1
    np.multiply(1 - BETA1, g, out=tmp)
    m += tmp
    v *= BETA2
    np.multiply(1 - BETA2, g, out=tmp)
    tmp *= g
    v += tmp
    np.divide(m, 1 - BETA1 ** t, out=tmp)
    tmp *= store.lr
    np.divide(v, 1 - BETA2 ** t, out=den)
    np.sqrt(den, out=den)
    den += EPS
    tmp /= den
    # the gather by live; mode="raise" would buffer `out`
    p = (store.vec if store.dense
         else np.take(store.vec, store.live, out=den, mode="clip"))
    np.subtract(p, tmp, out=den)
    np.copyto(store.f32, den, casting="same_kind")  # rounds to float32
    np.copyto(den, store.f32)  # a float64 scatter needs no cast buffer
    store.vec[store.live] = den


class ParamStore:
    """One optimizer group in one contiguous float64 vector `vec`: the
    `extra` arrays (such as an embedding table), then each MLP's arrays in
    `flat()` order.  Each MLP weight and bias is rebound as a view into
    `vec`, and `extra` holds the views of the extra arrays.  Adam and the
    float32 rounding are elementwise, so one update of the whole vector
    gives the same bits as one update per array.

    `live` holds one boolean mask per stored array, in storage order and
    broadcastable to its shape, of the entries that can receive a
    nonzero gradient; by default every entry can.  `self.live` indexes
    those entries of `vec` (the full slice when every entry is live), and
    Adam keeps moments for them only.  An entry whose gradient is exactly
    zero at every step would keep +0 moments, so the whole-vector update
    would leave it at p - 0 = p: skipping it gives the same bits.

    The store holds Adam's state for the run: the live entries' moments
    `m` and `v`, the step count `t`, the rate `lr`, and the work vectors
    `adam_step` computes in (`grad`, `tmp`, `den`, the float32 `f32` and
    the boolean `finite`).

    `step` takes each array's gradient as its live entries only, in
    row-major order: `sizes[i]` values for stored array i, in any shape
    (a dense array's gradient is the array-shaped gradient itself; see
    summarizer.ReconBuffers for a W0 stored with live rows).  So a caller
    makes only the live gradient, and the store never concatenates,
    checks or gathers an entry Adam does not step."""

    def __init__(self, mlps: list[MlpParams], lr: float,
                 extra: list[np.ndarray] = (), live: list | None = None):
        arrays = list(extra) + [p for m in mlps for p in m.flat()]
        self.shapes = [a.shape for a in arrays]
        self.vec = np.concatenate([np.ravel(a) for a in arrays])
        ends = np.cumsum([a.size for a in arrays])[:-1]
        views = [v.reshape(a.shape)
                 for v, a in zip(np.split(self.vec, ends), arrays)]
        self.extra = views[:len(extra)]
        rest = iter(views[len(extra):])
        for m in mlps:
            m.set_flat([next(rest) for _ in m.flat()])
        if live is None:
            live = [True] * len(arrays)
        elif len(live) != len(arrays):
            raise ShapeError("need one live mask per stored array")
        masks = [np.broadcast_to(m, a.shape) for m, a in zip(live, arrays)]
        self.sizes = [int(np.count_nonzero(m)) for m in masks]
        n = sum(self.sizes)
        self.dense = n == self.vec.size
        self.live = slice(None) if self.dense else np.flatnonzero(
            np.concatenate([m.ravel() for m in masks]))
        self.lr, self.t = lr, 0
        # np.full, not np.zeros: a calloc'd vector was faulted in afresh
        # on every run (about 220 minor faults per 4-epoch train_unisid)
        self.m, self.v = np.full(n, 0.0), np.full(n, 0.0)
        self.grad, self.tmp, self.den = np.empty(n), np.empty(n), np.empty(n)
        self.f32 = np.empty(n, dtype=np.float32)
        self.finite = np.empty(n, dtype=bool)

    def step(self, grads: list[np.ndarray]) -> None:
        """One `adam_step` of the live entries from the live-entry
        gradients of each stored array."""
        if [g.size for g in grads] != self.sizes:
            raise ShapeError("gradients do not match the live entries of "
                             "the stored arrays")
        np.concatenate(grads, axis=None, out=self.grad)
        try:
            # through the module global, which benchmarks/ wraps per step
            adam_step(self)
        except NumericError:
            raise _nonfinite(grads) from None


def _nonfinite(grads: list[np.ndarray]) -> NumericError:
    """The error that names the first stored array with a non-finite
    gradient entry."""
    i = next(i for i, g in enumerate(grads) if not np.isfinite(g).all())
    return NumericError(f"non-finite gradient for stored array {i}")


def _kmeans_pp_init(screen: CentroidScreen, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding of `screen.points` via inverse-CDF draws (stable
    under point duplication).  Each round lowers every point's squared
    distance to its nearest centroid so far exactly as
    `np.minimum(d2, np.sum((x - c) ** 2, axis=1))` does, through
    `CentroidScreen.lower`, which skips the points the new centroid is
    provably no nearer to."""
    points = screen.points
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    idx = int(rng.random() * n)
    centroids[0] = points[idx]
    d2 = np.full(n, np.inf)
    bound = np.full(n, np.inf, dtype=np.float32)
    screen.lower(idx, d2, bound)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with a chosen centroid
            centroids[j] = points[int(rng.random() * n)]
            continue
        cum = np.cumsum(d2 / total)
        idx = int(np.searchsorted(cum, rng.random(), side="right"))
        idx = min(idx, n - 1)
        centroids[j] = points[idx]
        if j + 1 < k:  # no draw reads the distances to the last one
            screen.lower(idx, d2, bound)
    return centroids


# kind -> (one value, a list's values, test).  bool is a subclass of
# int, and None would seed a generator from OS entropy: neither is an
# integer.  abs() < inf also takes an int too large for a float.
_INTS = (int, np.integer)
_KINDS = {
    "int": ("an integer", "integers",
            lambda v: isinstance(v, _INTS) and not isinstance(v, bool)),
    "number": ("a finite number", "finite numbers",
               lambda v: isinstance(v, (*_INTS, float, np.floating))
               and not isinstance(v, bool) and abs(v) < np.inf),
    "bool": ("a boolean", "booleans",
             lambda v: isinstance(v, (bool, np.bool_)))}


@functools.cache
def _bound(text: str):
    op, limit = text.split()  # ">= 1" -> (operator.ge, 1.0)
    return {">": operator.gt, ">=": operator.ge, "<": operator.lt,
            "<=": operator.le}[op], float(limit)


def rule(kind, *bounds: str, default=MISSING, **opts):
    """A dataclass field that `check` holds to `require`'s rule."""
    return field(default=default, metadata={"rule": (kind, bounds, opts)})


def require(name: str, value, kind, *bounds: str, null=False,
            items=None) -> None:
    """ConfigurationError("<name> must be ...") unless `value` is of `kind`
    ("int", "number", "bool", or a section dataclass that `check` passes)
    within every bound, such as "> 0", or None where `null` allows it;
    with `items` ("+" or a length), a nonempty list or tuple of such."""
    if isinstance(kind, type):
        if not isinstance(value, kind):
            raise ConfigurationError(f"{name} must be a {kind.__name__}")
        return check(value, name)
    one, many, test = _KINDS[kind]
    values = [value] if items is None else value
    if value is None and null or (
            isinstance(values, (list, tuple)) and values
            and items in (None, "+", len(values)) and all(map(test, values))
            and all(cmp(v, limit) for cmp, limit in map(_bound, bounds)
                    for v in values)):
        return
    what = (one if items is None else f"a nonempty list of {many}"
            if items == "+" else f"a list of {items} {many}")
    raise ConfigurationError(
        f"{name} must be {what}{' and'.join(' ' + b for b in bounds)}"
        + (" or null" if null else ""))


def check(section, name: str) -> None:
    """Holds each field of the dataclass `section` to its `rule`."""
    for f in fields(section):
        kind, bounds, opts = f.metadata["rule"]
        require(f"{name}.{f.name}", getattr(section, f.name), kind, *bounds,
                **opts)


# seeded restarts of every k-means fit
N_INIT = 8


def kmeans_fit(points: np.ndarray, k: int, iterations: int = 50,
               seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding and N_INIT seeded
    restarts (best objective wins, first winner kept on ties).

    Each assignment is exactly `argmin(np.sum((x - c) ** 2, axis=-1))`,
    ties to the lowest centroid index; each centroid is the mean of its
    points summed in row order.  Empty clusters are re-seeded to the
    farthest point.  One `CentroidScreen` of the points serves every
    seeding round and Lloyd step of every restart: the float32 screen
    settles each point whose nearest centroid is clear by more than its
    rounding bound, and the float64 broadcast form settles the rest, so
    the screen moves no bit of the result.
    Returns (centroids (k, d), assignments (n,)).

    Raises ShapeError unless `points` is an (n, d >= 1) array, and
    NumericError if a point is not finite.
    """
    require("K", k, "int", ">= 1")
    require("iterations", iterations, "int", ">= 0")
    require("seed", seed, "int", ">= 0")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 1:
        raise ShapeError(f"points must be an (n, d >= 1) array, "
                         f"not of shape {points.shape}")
    if not np.isfinite(points).all():
        raise NumericError("non-finite point")
    if k > points.shape[0]:
        raise ConfigurationError(
            f"K={k} exceeds number of points {points.shape[0]}")
    screen = CentroidScreen(points)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(N_INIT):
        centroids, assign = _kmeans_single(points, screen, k, iterations, rng)
        obj = kmeans_objective(points, centroids, assign)
        if best is None or obj < best[0] - 1e-12:
            best = (obj, centroids, assign)
    return best[1], best[2]


_U32 = 2.0 ** -24  # float32 unit roundoff


@functools.cache
def _tie_weights(k: int) -> np.ndarray:
    """[1; 0..k-1] in float32.  Against a (k, n) 0/1 mask it gives each
    column's count and, where that is 1, the index of its 1: small
    integers, so exact."""
    weights = np.ones((2, k), dtype=np.float32)
    weights[1] = np.arange(k)
    weights.flags.writeable = False
    return weights


class CentroidScreen:
    """The nearest centroid of each point of one point set, exactly as
    `argmin(np.sum((x - c) ** 2, axis=-1))` gives it, for any centroids:
    `CentroidScreen(points).nearest(centroids)`, lowest index on ties;
    and, through `lower`, the k-means++ rounds of the same points.

    **The screen.**  Both sets are shifted by one vector m (the points'
    mean, or the midpoint of the centroids' bounding box when
    `centroids` are given) and scaled by the power of two 2^e that brings
    the largest |component| of the points (and those centroids) below 1:
    A = (x - m) 2^e and B = (c - m) 2^e.  Both are rounded to float32,
    and one GEMM of [-2B, ||B||^2] against [A; 1] (the GEMM form of
    Johnson, Douze & Jegou, "Billion-scale similarity search with GPUs")
    gives, for every pair, s = ||B||^2 - 2 B.A.  That is the squared
    distance ||A - B||^2 less ||A||^2, which is the same for every
    centroid and so moves no argmin.
    The shift keeps clouds far from the origin from cancelling, and the
    scale keeps magnitudes past float32's range, or below its normal
    range, from overflowing or losing bits.  The points' side, [A; 1] as
    one contiguous (d + 1, n) float32 array and the norms ||A||, is
    prepared once, here.  The screen is laid out (k, n), so the minimum
    and the close-column count reduce over long contiguous rows; one
    small GEMM of `_tie_weights` against the 0/1 close mask gives each
    point its close-column count and, where that is 1, the column.

    **The bound.**  Let u = 2^-24, v = 2^-53, a = ||A||, b = ||B|| and
    S = (a + b)^2; gamma_m = m u / (1 - m u).  To first order in u, and
    for any order the GEMM sums in:
      - rounding x - m and c - m to float64 and then to float32 moves s
        by at most 2u (b^2 + 2ab) <= 2u S;
      - rounding ||B||^2 to float32 moves it by u b^2 <= u S;
      - the float32 dot product of d + 1 terms errs by at most
        gamma_{d+1} (2ab + b^2) <= gamma_{d+1} S.
    So each screen entry is within E = (gamma_{d+1} + 3u) S of s, and the
    float64 broadcast form within F = (d + 2) v S of the true squared
    distance (in the same scaled units).  The broadcast argmin j and the
    screened minimum i then satisfy screen[j] <= screen[i] + E_j + E_i +
    F_j + F_i, and so does every column tied with j.  The tolerance takes
    S per point with the largest b; its factor covers the rounding of the
    float32 arithmetic that evaluates it (and of adding it to the
    minimum) and the second-order terms; its slack covers underflow, in
    float32 (flushed to zero or not) and in the broadcast form's squares
    (d 2^-1075 each, unscaled):
        tol = (2 (d + 1) / (1 - (d + 1) u) + 8) u (1 + 2^-6) S + slack,
        slack = d 2^-96 + d 2^-1073 4^e.
    A point with exactly one column within tol of its screened minimum
    has that column as its answer.  Every other point, rare outside
    exact ties and degenerate clouds, is recomputed in the broadcast
    form, and `fallback_rows` counts them.  So is every point whose span
    reaches 2^1016 unscaled, where the broadcast form may overflow, and,
    through the slack, every near tie of a cloud whose squares underflow
    in float64.  For d > 2^16, or a non-finite point, every point is
    recomputed.  Centroids with a scaled component past 2^20 get a screen
    of their own, fitted to both sets.
    """

    def __init__(self, points: np.ndarray,
                 centroids: np.ndarray | None = None):
        self.points = points
        self.fallback_rows = 0
        n, d = points.shape
        self.exact = n == 0 or d > 2 ** 16
        if self.exact:
            return
        if centroids is None:
            center = np.full(n, 1.0 / n) @ points
        else:
            center = 0.5 * centroids.min(axis=0) + 0.5 * centroids.max(axis=0)
        a = points - center
        parts = [a.max(), -a.min()]
        if centroids is not None:
            b = centroids - center
            parts += [b.max(), -b.min()]
        if not all(map(math.isfinite, parts)):
            self.exact = True
            return
        self.center = center
        # every |component| < 2^p; a cloud too small is scaled short of 1
        p = math.frexp(max(parts))[1]
        shift = min(-p, 1000)
        a *= math.ldexp(1.0, shift)  # exact unless a product is subnormal
        self.points_t = np.empty((d + 1, n), dtype=np.float32)
        self.points_t[:d] = a.T
        self.points_t[d] = 1.0
        norms = np.sqrt(np.einsum("ij,ij->i", a, a))
        self.norms = norms.astype(np.float32)
        self.max_norm = float(norms.max())
        self.twice_scale = math.ldexp(1.0, shift + 1)
        self.gain = ((2 * (d + 1) / (1 - (d + 1) * _U32) + 8) * _U32
                     * (1 + 2 ** -6))
        self.slack = d * 2.0 ** -96 + d * math.ldexp(1.0, min(2 * shift - 1073,
                                                              200))
        # a span at or past this, scaled, may overflow the broadcast form
        self.ceiling = math.ldexp(1.0, min(1016 + 2 * shift, 1000))
        # centroids past this, unscaled, would pass 2^20 scaled
        self.far = math.ldexp(1.0, p + 20) if p + 20 < 1024 else math.inf

    def nearest(self, centroids: np.ndarray) -> np.ndarray:
        """Index of each point's nearest centroid, lowest on ties."""
        if self.exact:
            return self._recompute(centroids)
        b = self.center - centroids
        if not np.abs(b).max() <= self.far:  # far, or not finite
            own = CentroidScreen(self.points, centroids)
            nearest = own.nearest(centroids)
            self.fallback_rows += own.fallback_rows
            return nearest
        k, d = b.shape
        b *= self.twice_scale
        rows = np.empty((k, d + 1), dtype=np.float32)
        rows[:, :d] = b  # -2B
        sq = np.einsum("ij,ij->i", rows[:, :d], rows[:, :d],
                       dtype=np.float64)  # 4 ||B||^2
        rows[:, d] = 0.25 * sq
        bound = self._tolerance(0.5 * math.sqrt(sq.max()))
        if bound is None:
            return self._recompute(centroids)
        screen = rows @ self.points_t
        bound += np.minimum.reduce(screen, axis=0)  # in place: min + tol
        close = np.less_equal(screen, bound, out=screen)  # 0.0 / 1.0
        count, index = _tie_weights(k) @ close
        return self._recompute(centroids, index.astype(np.int64),
                               np.flatnonzero(count != 1))

    def lower(self, i: int, d2: np.ndarray, bound: np.ndarray) -> None:
        """Lowers `d2` in place to each point's squared distance to point
        `i` where that is smaller, exactly as `np.minimum(d2,
        np.sum((x - x[i]) ** 2, axis=1), out=d2)` does: the k-means++
        round of a new centroid x[i].

        Point i's screen entries are one GEMV of its [-2B, ||B||^2] row
        against the prepared points.  `bound`, float32 and +inf for every
        point before the first call, holds each point's entry s_q for the
        point q whose distance `d2` holds, plus its tolerance tol.  With
        E and F the errors of the class docstring, the broadcast
        distances to x[i] and x[q] differ by at least s_i - s_q - (E_i +
        E_q + F_i + F_q), and tol covers that sum and the float32 sum
        s_q + tol, as in `nearest`.  So where s_i > s_q + tol, the
        distance to x[i] exceeds `d2`, and `d2` stands; every other point
        is recomputed in the broadcast form and counted in
        `fallback_rows`, and `d2` and `bound` take the new values where
        the distance fell.  tol takes b = `max_norm`: every centroid is a
        point, so its b is at most that to float32 rounding, which the
        tolerance's factor covers, and one tolerance serves every call.
        It keeps `nearest`'s overflow ceiling and underflow slack, and an
        `exact` screen recomputes every point."""
        if self.exact:
            rows, screen = np.arange(self.points.shape[0]), None
        else:
            row = self.points_t[:, i] * np.float32(-2.0)  # [-2B, -2]
            b = row[:-1].astype(np.float64)
            row[-1] = 0.25 * np.dot(b, b)  # ||B||^2
            screen = row @ self.points_t
            rows = np.flatnonzero(screen <= bound)
        diff = self.points[rows]
        diff -= self.points[i]
        diff *= diff
        new = diff.sum(axis=1)
        self.fallback_rows += rows.size
        nearer = new < d2[rows]
        rows = rows[nearer]
        d2[rows] = new[nearer]
        if screen is not None:
            bound[rows] = screen[rows] + self._point_tolerance[rows]

    @functools.cached_property
    def _point_tolerance(self) -> np.ndarray:
        """`_tolerance` for centroids that are points, +inf where it
        settles nothing."""
        tol = self._tolerance(self.max_norm)
        return np.full_like(self.norms, np.inf) if tol is None else tol

    def _tolerance(self, b_norm: float) -> np.ndarray | None:
        """Each point's tolerance against centroids of norm at most
        `b_norm`, gain (|A| + b_norm)^2 in float32, and +inf where the
        span may overflow the broadcast form; None where it settles no
        point."""
        # the slack folded into the gain, as S >= b_norm^2; past float32's
        # range, or with every centroid at the center, it settles nothing
        gain = self.gain + self.slack / b_norm / b_norm if b_norm else math.inf
        if not gain < 2.0 ** 127:
            return None
        tol = self.norms + np.float32(b_norm)
        if (self.max_norm + b_norm) ** 2 >= self.ceiling:
            tol[(self.norms.astype(np.float64) + b_norm) ** 2
                >= self.ceiling] = np.inf
        tol *= tol
        tol *= np.float32(gain)
        return tol

    def _recompute(self, centroids: np.ndarray,
                   nearest: np.ndarray | None = None,
                   rows: np.ndarray | None = None) -> np.ndarray:
        """`nearest` with `rows` settled in the broadcast form; by default,
        every row."""
        if nearest is None:
            rows = slice(None)
        elif not rows.size:
            return nearest
        d2 = np.sum((self.points[rows, None, :] - centroids[None, :, :]) ** 2,
                    axis=2)
        found = np.argmin(d2, axis=1)
        self.fallback_rows += found.size
        if nearest is None:
            return found
        nearest[rows] = found
        return nearest


def _cluster_means(points: np.ndarray, bins: np.ndarray,
                   counts: np.ndarray) -> np.ndarray:
    """Each cluster's mean, its rows summed in row order from +0.0 as
    `points[assign == j].sum(axis=0)` sums them; every count is >= 1.
    `bins` is the (n, d) scatter index `assign[:, None] * d + column`."""
    k, d = counts.shape[0], points.shape[1]
    if d == 1:
        # NumPy sums a single column pairwise, so sum sorted slices
        grouped = points[np.argsort(bins.ravel(), kind="stable")]
        ends = np.cumsum(counts)
        sums = np.stack([grouped[e - c:e].sum(axis=0)
                         for c, e in zip(counts, ends)])
    else:
        sums = np.bincount(bins.ravel(), weights=points.ravel(),
                           minlength=k * d).reshape(k, d)
    return sums / counts[:, None]


def _kmeans_single(points: np.ndarray, screen: CentroidScreen, k: int,
                   iterations: int, rng: np.random.Generator
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One seeded Lloyd run.  Each update is the plain means of the
    assignment (`_cluster_means`: one bincount for d >= 2, sorted-slice
    sums for d = 1), or `_reseed_update` when a cluster is empty.

    The scatter index `bins` that `_cluster_means` reads is kept for the
    whole run: each step rewrites only the rows whose cluster moved, and
    an empty moved set is the convergence test.  A re-seed moves rows of
    the new assignment in place, so after one the moved rows are found
    again.

    A step whose assignment repeats the one before ends the run.  If the
    update before it took the plain means, the centroids already are
    this assignment's means, and this assignment is their nearest
    centroids, so both are returned as they stand.  After a re-seed the
    update and the final assignment are computed again."""
    centroids = _kmeans_pp_init(screen, k, rng)
    n, d = points.shape
    assign = np.zeros(n, dtype=np.int64)
    columns = np.arange(d)
    bins = np.tile(columns, (n, 1))  # `assign`'s index
    plain = False  # whether centroids are the plain means of `assign`
    for _ in range(iterations):
        new_assign = screen.nearest(centroids)
        moved = np.flatnonzero(new_assign != assign)
        if plain and not moved.size:
            return centroids, new_assign
        counts = np.bincount(new_assign, minlength=k)
        plain = bool(counts.all())
        if not plain:
            _reseed_update(points, centroids, new_assign)
            moved = np.flatnonzero(new_assign != assign)
        bins[moved] = new_assign[moved, None] * d + columns
        if plain:
            centroids = _cluster_means(points, bins, counts)
        assign = new_assign
        if not moved.size:
            break
    return centroids, screen.nearest(centroids)


def _reseed_update(points: np.ndarray, centroids: np.ndarray,
                   assign: np.ndarray) -> None:
    """Centroid update when some cluster is empty, in place and in
    cluster order: an empty cluster takes the point farthest from its
    centroid before this update, and that point leaves its cluster for
    the clusters not yet updated."""
    before = centroids.copy()
    for j in range(centroids.shape[0]):
        mask = assign == j
        if mask.any():
            centroids[j] = points[mask].mean(axis=0)
        else:
            far = int(np.argmax(np.sum((points - before[assign]) ** 2,
                                       axis=1)))
            centroids[j] = points[far]
            assign[far] = j


def kmeans_objective(points: np.ndarray, centroids: np.ndarray,
                     assign: np.ndarray) -> float:
    """`np.sum((points - centroids[assign]) ** 2)`, in the one buffer the
    gather makes."""
    buf = centroids[assign]
    np.subtract(points, buf, out=buf)
    buf *= buf
    return float(buf.sum())
