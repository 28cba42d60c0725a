import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidforge import numkit
from sidforge.errors import ConfigurationError, NumericError, ShapeError
from sidforge.numkit import (MlpParams, kmeans_fit, kmeans_objective,
                             mlp_apply, mlp_grad, mlp_init)
from testkit import finite_diff_check, near_float32_ties, nearest_centroid


def _random_mlp(dims, rng):
    return mlp_init(dims, rng)


# --- forward pass -----------------------------------------------------------

def test_identity_layer():
    m = MlpParams([np.eye(3)], [np.zeros(3)])
    x = np.array([[1.0, -2.0, 3.0]])
    y, _ = mlp_apply(m, x)
    assert np.array_equal(y, x)


def test_relu_kills_negative_input():
    m = MlpParams([np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])
    y, _ = mlp_apply(m, np.array([[-1.0, -5.0]]))
    assert np.array_equal(y, np.zeros((1, 2)))


def test_forward_matches_independent_reimplementation(rng):
    m = _random_mlp([5, 7, 3], rng)
    x = rng.normal(size=(4, 5))
    y, _ = mlp_apply(m, x)
    # plain-loop second implementation
    expect = np.empty((4, 3))
    for r in range(4):
        h = x[r]
        for w, b, act in zip(m.weights, m.biases, m.activations):
            h = np.array([sum(h[i] * w[i, j] for i in range(w.shape[0])) + b[j]
                          for j in range(w.shape[1])])
            if act == "relu":
                h = np.maximum(h, 0.0)
        expect[r] = h
    assert np.allclose(y, expect, atol=1e-12)


def test_shape_error():
    m = MlpParams([np.eye(3)], [np.zeros(3)])
    with pytest.raises(ShapeError):
        mlp_apply(m, np.ones((2, 4)))


# --- gradients --------------------------------------------------------------

def test_zero_upstream_gives_zero_grads(rng):
    m = _random_mlp([4, 6, 2], rng)
    x = rng.normal(size=(3, 4))
    _, cache = mlp_apply(m, x)
    grads, gx = mlp_grad(m, cache, np.zeros((3, 2)))
    assert all(np.all(g == 0) for g in grads)
    assert np.all(gx == 0)


def test_linear_layer_weight_gradient():
    # scalar output w.x: dL/dw = x
    m = MlpParams([np.array([[0.5], [2.0]])], [np.zeros(1)])
    x = np.array([[3.0, -1.0]])
    _, cache = mlp_apply(m, x)
    grads, _ = mlp_grad(m, cache, np.ones((1, 1)))
    assert np.allclose(grads[0], x.T)


def test_mlp_grad_matches_finite_differences(rng):
    m = _random_mlp([4, 8, 3], rng)
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))

    def loss(params):
        m.set_flat(params)
        y, cache = mlp_apply(m, x)
        grads, _ = mlp_grad(m, cache, 2 * (y - target))
        return float(np.sum((y - target) ** 2)), grads

    rep = finite_diff_check(loss, m.flat(), h=1e-4, tolerance=1e-4)
    assert rep.passed, rep


def _textbook_mlp(m, x, upstream):
    """Forward and backward in the allocating textbook form."""
    h, pres = x, []
    for w, b, act in zip(m.weights, m.biases, m.activations):
        pre = h @ w + b
        pres.append(pre)
        h = np.maximum(pre, 0.0) if act == "relu" else pre
    g, grads = upstream, [None] * (2 * len(m.weights))
    for i in range(len(m.weights) - 1, -1, -1):
        if m.activations[i] == "relu":
            g = g * (pres[i] > 0.0)
        inp = x if i == 0 else np.maximum(pres[i - 1], 0.0)
        grads[2 * i], grads[2 * i + 1] = inp.T @ g, g.sum(axis=0)
        g = g @ m.weights[i].T
    return h, pres, grads, g


@pytest.mark.parametrize("dims", [[6, 5, 3], [6, 7, 5, 4, 2]])
def test_in_place_layers_match_textbook_bits(rng, dims):
    # integer weights, biases and inputs put exact zeros among the
    # pre-activations, where a ReLU mask and its sign matter
    m = MlpParams([rng.integers(-2, 3, size=(a, b)).astype(float)
                   for a, b in zip(dims, dims[1:])],
                  [rng.integers(-1, 2, size=b).astype(float)
                   for b in dims[1:]])
    x = rng.integers(-2, 3, size=(9, dims[0])).astype(float)
    up = rng.normal(size=(9, dims[-1]))
    up_before = up.copy()
    y, cache = mlp_apply(m, x)
    grads, gx = mlp_grad(m, cache, up)
    want_y, want_pres, want_grads, want_gx = _textbook_mlp(m, x, up)
    assert any(np.any(pre == 0.0) for pre in want_pres[:-1])
    assert y.tobytes() == want_y.tobytes()
    # each hidden entry is the ReLU output; the identity output layer's
    # entry is its pre-activation
    assert [out.tobytes() for _, out in cache] == [
        np.maximum(pre, 0.0).tobytes() for pre in want_pres[:-1]] + [
        want_pres[-1].tobytes()]
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in want_grads]
    assert gx.tobytes() == want_gx.tobytes()
    # the caller's upstream gradient is left as it was
    assert up.tobytes() == up_before.tobytes()


# --- adam -------------------------------------------------------------------

def _store(arrays, lr=0.1, live=None):
    """A parameter store of `arrays` alone, no MLP."""
    return numkit.ParamStore([], lr, extra=arrays, live=live)


def test_adam_zero_gradient_first_step():
    store = _store([np.array([1.0, 2.0])])
    store.step([np.zeros(2)])
    assert np.array_equal(store.vec, [1.0, 2.0])


def test_adam_first_step_magnitude():
    # at t=1 with constant gradient g: update = -lr * g/(|g| + eps), about
    # -lr*sign(g), rounded to the float32 grid
    for g in (3.0, -0.25):
        store = _store([np.array([0.0])], lr=0.01)
        store.step([np.array([g])])
        expect = -0.01 * g / (abs(g) + numkit.EPS)
        assert np.isclose(store.vec[0], expect, rtol=2.0 ** -24)
        assert np.sign(store.vec[0]) == -np.sign(g)


def test_adam_deterministic():
    stores = [_store([np.array([1.0, -1.0])]) for _ in range(2)]
    for store in stores:
        store.step([np.array([0.5, 0.25])])
    assert np.array_equal(stores[0].vec, stores[1].vec)


def _oracle_adam_step(store):
    """adam_step as the textbook writes it, with fresh arrays for the
    moments and every term, then rounded to the float32 grid: the
    in-place kernel must match it bit for bit."""
    g = store.grad
    store.t += 1
    t = store.t
    store.m = numkit.BETA1 * store.m + (1 - numkit.BETA1) * g
    store.v = numkit.BETA2 * store.v + (1 - numkit.BETA2) * g * g
    mhat = store.m / (1 - numkit.BETA1 ** t)
    vhat = store.v / (1 - numkit.BETA2 ** t)
    store.vec[store.live] = numkit.quantize_f32(
        store.vec[store.live]
        - store.lr * mhat / (np.sqrt(vhat) + numkit.EPS))


def _oracle_store_step(store, grads):
    """ParamStore.step as it was written before live entries: the
    live-entry gradients scattered into a fresh whole-vector gradient,
    zero elsewhere, and one `numkit.adam_step` over the whole vector of
    a dense store with moments of its own (`oracle`), copied back."""
    if not hasattr(store, "oracle"):
        store.oracle = _store([store.vec], store.lr)
    oracle = store.oracle
    oracle.vec[:] = store.vec
    oracle.grad[:] = 0.0
    oracle.grad[store.live] = np.concatenate(grads, axis=None)
    numkit.adam_step(oracle)
    store.vec[:] = oracle.vec


def _adam_grads(rng, shapes, step):
    if step % 7 == 3:
        return [np.zeros(s) for s in shapes]      # an all-zero step
    grads = []
    for s in shapes:
        g = rng.normal(size=s) * 10.0 ** rng.integers(-8, 4, size=s)
        g[rng.random(s) < 0.2] = 0.0
        grads.append(g)
    return grads


def test_adam_bits_match_allocating_oracle(rng):
    shapes = [(4, 3), (5,), (1,)]
    params = [rng.normal(size=s) for s in shapes]
    start = [p.copy() for p in params]
    for live in (None, [np.array([[True], [False], [True], [True]]),
                        rng.random(5) < 0.6, True]):
        got, want = _store(params, 0.01, live), _store(params, 0.01, live)
        assert got.dense == (live is None)
        for step in range(50):   # every 7th step is all zero
            [want.grad] = _adam_grads(rng, [got.grad.shape], step)
            got.grad[:] = want.grad
            numkit.adam_step(got)
            _oracle_adam_step(want)
            assert got.t == want.t == step + 1
            for a, b in ((got.vec, want.vec), (got.m, want.m),
                         (got.v, want.v)):
                assert a.tobytes() == b.tobytes()
    # the caller's arrays are left alone: the store holds a copy
    for p, p0 in zip(params, start):
        assert np.array_equal(p, p0)


def test_param_store_step_matches_oracle(rng):
    dims = [5, 7, 3]
    a = mlp_init(dims, np.random.default_rng(1))
    b = mlp_init(dims, np.random.default_rng(1))
    got = numkit.ParamStore([a], lr=0.01, extra=[np.ones((2, 3))])
    want = numkit.ParamStore([b], lr=0.01, extra=[np.ones((2, 3))])
    for step in range(50):
        grads = _adam_grads(rng, got.shapes, step)
        got.step(grads)
        _oracle_store_step(want, grads)
        assert np.array_equal(got.vec, want.vec)
        assert np.array_equal(got.m, want.oracle.m)
        assert np.array_equal(got.v, want.oracle.v)
    # the MLP arrays are still views of the stored vector
    assert np.array_equal(a.weights[1], b.weights[1])
    assert np.shares_memory(a.weights[1], got.vec)


@pytest.mark.parametrize("masked", [False, True])
def test_param_store_step_allocates_no_live_size_array(rng, masked):
    # Adam's moments, its terms and the float32 rounding live in the
    # store's work vectors: repeated steps allocate less than one byte
    # per live entry, so not even a boolean mask of them
    live = [rng.random((400, 1)) < 0.5, True] if masked else None
    store = _store([np.ones((400, 256)), np.ones(256)], 1e-3, live)
    grads = [rng.normal(size=n) for n in store.sizes]
    store.step(grads)
    tracemalloc.start()
    try:
        for _ in range(5):
            store.step(grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert store.t == 6 and store.dense != masked
    assert peak < store.grad.size


def test_masked_param_store_matches_dense(rng):
    # storage order: extra, w0, b0, w1, b1; masks broadcast to each shape
    dims = [5, 7, 3]
    live = [rng.random((4, 1)) < 0.5, rng.random((5, 7)) < 0.6, True,
            rng.random((1, 3)) < 0.7, np.array([True, False, True])]
    got, want = [numkit.ParamStore(
        [mlp_init(dims, np.random.default_rng(1))], lr=0.01,
        extra=[np.full((4, 3), 0.5)], live=mask) for mask in (live, None)]
    full = [np.broadcast_to(m, s) for m, s in zip(live, got.shapes)]
    # live entries whose gradient stays zero for many steps, then moves
    late = [rng.random(s) < 0.3 for s in got.shapes]
    dead = ~np.concatenate([m.ravel() for m in full])
    assert dead.any() and got.live.size == dead.size - dead.sum()
    start = got.vec.copy()
    for step in range(50):
        grads = _adam_grads(rng, got.shapes, step)
        for g, m, quiet in zip(grads, full, late):
            g[~m] = 0.0
            if step < 30:
                g[quiet] = 0.0
        got.step([g[m] for g, m in zip(grads, full)])   # live entries
        want.step(grads)
        assert got.vec.tobytes() == want.vec.tobytes()
        assert got.t == want.t
        for mine, dense in ((got.m, want.m), (got.v, want.v)):
            assert mine.tobytes() == dense[got.live].tobytes()
            assert dense[dead].tobytes() == bytes(8 * dead.sum())  # +0.0
    assert np.array_equal(got.vec[dead], start[dead])
    assert (got.vec[~dead] != start[~dead]).all()


def test_param_store_live_masks_checked(rng):
    def store(live):
        return numkit.ParamStore([mlp_init([3, 2], rng)], lr=0.1, live=live)

    assert store(None).live == slice(None)
    assert store([True, True]).live == slice(None)
    with pytest.raises(ShapeError, match="one live mask"):
        store([True])
    with pytest.raises(ValueError):
        store([np.ones((2, 3), bool), True])   # does not broadcast
    masked = store([np.array([[True], [False], [True]]), True])
    assert masked.sizes == [4, 2] and masked.grad.size == 6


def test_param_store_takes_live_entry_gradients(rng):
    # W0 (3, 2) with live rows 0 and 2, b0 dense: 4 + 2 live entries
    store = numkit.ParamStore([mlp_init([3, 2], rng)], lr=0.1,
                              live=[np.array([[True], [False], [True]]),
                                    True])
    dense = numkit.ParamStore([mlp_init([3, 2], rng)], lr=0.1)
    for s, grads in ((store, [np.zeros((3, 2)), np.zeros(2)]),   # dense W0
                     (store, [np.zeros(3), np.zeros(2)]),
                     (store, [np.zeros(4)]),
                     (dense, [np.zeros(5), np.zeros(2)])):
        with pytest.raises(ShapeError, match="live entries"):
            s.step(grads)
    # any shape of the right size: the (live rows, hidden) block, or flat
    store.step([np.ones((2, 2)), np.ones(2)])
    store.step([np.ones(4), np.ones(2)])
    for array, entry in ((0, (1, 1)), (1, (0,))):
        before = (store.vec.copy(), store.m.copy(), store.v.copy(), store.t)
        grads = [np.ones((2, 2)), np.ones(2)]
        grads[array][entry] = np.nan
        with pytest.raises(NumericError, match=f"stored array {array}$"):
            store.step(grads)
        after = (store.vec, store.m, store.v, store.t)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_param_store_checks_each_gradient_entry_once(rng, monkeypatch):
    dense = numkit.ParamStore([mlp_init([3, 4, 2], rng)], lr=0.1,
                              extra=[np.ones(5)])
    masked = numkit.ParamStore([mlp_init([3, 2], rng)], lr=0.1,
                               live=[np.array([[True], [False], [True]]),
                                     True])
    checked = []
    isfinite = np.isfinite

    def counted(a, *args, **kwargs):
        checked.append(np.size(a))
        return isfinite(a, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "isfinite", counted)
        dense.step([np.ones(s) for s in dense.shapes])
        assert checked == [dense.vec.size]
        checked.clear()
        # a masked store gets, and Adam checks, its live entries only
        masked.step([np.ones(n) for n in masked.sizes])
        assert checked == [masked.live.size]
    # a non-finite entry names its array and changes nothing
    for store, array, entry in ((dense, 3, 5), (dense, 0, 4),
                                (masked, 0, 2), (masked, 1, 0)):
        before = (store.vec.copy(), store.m.copy(), store.v.copy(), store.t)
        grads = [np.ones(n) for n in store.sizes]
        grads[array][entry] = np.nan
        with pytest.raises(NumericError, match=f"stored array {array}$"):
            store.step(grads)
        after = (store.vec, store.m, store.v, store.t)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


@pytest.mark.parametrize("dims", [[4, 3], [4, 6, 5, 3]])
def test_mlp_grad_params_only(rng, dims):
    # the skipped first-layer input gradient changes no parameter bit
    m = _random_mlp(dims, rng)
    _, cache = mlp_apply(m, rng.normal(size=(7, 4)))
    up = rng.normal(size=(7, 3))
    grads, _ = mlp_grad(m, cache, up)
    only, none = mlp_grad(m, cache, up, input_grad=False)
    assert none is None
    assert [g.tobytes() for g in only] == [g.tobytes() for g in grads]

# --- finite-difference checker ---------------------------------------------

def test_fd_check_quadratic():
    p = [np.array([1.0, -2.0, 0.5])]

    def loss(params):
        return float(np.sum(params[0] ** 2)), [2 * params[0]]

    rep = finite_diff_check(loss, p, h=1e-4, tolerance=1e-4)
    assert rep.passed and rep.max_rel_error < 1e-9


def test_fd_check_flags_corrupted_gradient():
    p = [np.array([1.0, -2.0, 0.5])]

    def loss(params):
        g = 2 * params[0]
        g[1] *= 2.0  # fault injection
        return float(np.sum(params[0] ** 2)), [g]

    rep = finite_diff_check(loss, p, h=1e-4, tolerance=1e-4)
    assert not rep.passed
    assert (rep.worst_param, rep.worst_coord) == (0, 1)


def _relu_sum(grad_scale=1.0):
    """sum(relu(p)) and its gradient, scaled to inject a fault."""
    def loss(params):
        p = params[0]
        return float(np.maximum(p, 0.0).sum()), [grad_scale * (p > 0.0)]
    return loss


# four coordinates 3e-5 from the kink at 0 (inside +-h), four far from it
KINKED = np.array([3e-5, 0.5, -3e-5, -0.7, 3e-5, 0.9, -3e-5, 1.2])


def test_fd_check_redraws_kinked_coordinates():
    # at p = 3e-5 the central difference is 0.65 against a gradient of 1
    naive = finite_diff_check(_relu_sum(), [KINKED.copy()],
                              max_coords_per_param=4,
                              rng=np.random.default_rng(0), max_redraws=0)
    assert not naive.passed and naive.redraws == 0
    rep = finite_diff_check(_relu_sum(), [KINKED.copy()],
                            max_coords_per_param=4,
                            rng=np.random.default_rng(0))
    assert rep.passed and rep.max_rel_error < 1e-9
    assert rep.redraws == 4
    # past the cap a kinked coordinate is checked as it is
    capped = finite_diff_check(_relu_sum(), [KINKED.copy()],
                               max_coords_per_param=4,
                               rng=np.random.default_rng(0), max_redraws=1)
    assert capped.redraws == 1 and not capped.passed


def test_fd_check_does_not_redraw_smooth_curvature():
    # f'' = 9 e^{3p} opens a forward-backward gap of 3h |f'|, above twice
    # the tolerance, but it halves with the step, so nothing is redrawn
    p = [np.linspace(-1.0, 1.0, 12)]

    def loss(params):
        return float(np.exp(3 * params[0]).sum()), [3 * np.exp(3 * params[0])]

    rep = finite_diff_check(loss, p, max_coords_per_param=6,
                            rng=np.random.default_rng(1))
    assert rep.passed and rep.redraws == 0


def test_fd_check_wrong_gradient_still_fails(rng):
    # a doubled gradient fails at the smooth coordinates the redraws reach
    rep = finite_diff_check(_relu_sum(2.0), [KINKED.copy()],
                            max_coords_per_param=4,
                            rng=np.random.default_rng(0))
    assert not rep.passed and rep.max_rel_error > 0.4
    # a 1% error in one layer of a ReLU net, at sampled coordinates
    m = _random_mlp([4, 8, 3], rng)
    x = rng.normal(size=(5, 4))

    def loss(params):
        m.set_flat(params)
        y, cache = mlp_apply(m, x)
        grads, _ = mlp_grad(m, cache, 2 * y)
        grads[2] = 1.01 * grads[2]
        return float(np.sum(y ** 2)), grads

    rep = finite_diff_check(loss, m.flat(), max_coords_per_param=3,
                            rng=np.random.default_rng(2))
    assert not rep.passed and rep.worst_param == 2


# --- k-means ----------------------------------------------------------------

def test_kmeans_saturation(rng):
    x = rng.normal(size=(6, 3))
    centroids, assign = kmeans_fit(x, k=6, seed=0)
    assert kmeans_objective(x, centroids, assign) < 1e-20
    assert sorted(centroids[assign].tolist()) == sorted(x.tolist())


def test_kmeans_square_corners_matches_enumeration():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    # exhaustive oracle over all ways to split 4 points into 2 nonempty sets
    best = np.inf
    for mask in range(1, 15):
        a = [i for i in range(4) if mask >> i & 1]
        b = [i for i in range(4) if not mask >> i & 1]
        cost = sum(np.sum((x[g] - x[g].mean(axis=0)) ** 2)
                   for g in (a, b) if g)
        best = min(best, cost)
    for seed in range(5):
        centroids, assign = kmeans_fit(x, k=2, seed=seed)
        assert np.isclose(kmeans_objective(x, centroids, assign), best)


def test_kmeans_duplication_invariance(rng):
    x = rng.normal(size=(30, 4))
    doubled = np.repeat(x, 2, axis=0)  # interleaved duplicates
    c1, _ = kmeans_fit(x, k=4, seed=3)
    c2, _ = kmeans_fit(doubled, k=4, seed=3)
    assert np.allclose(c1, c2)


def test_kmeans_objective_monotone(rng):
    x = rng.normal(size=(60, 3))
    objectives = []
    for iters in range(1, 12):
        c, a = kmeans_fit(x, k=5, iterations=iters, seed=1)
        objectives.append(kmeans_objective(x, c, a))
    for prev, cur in zip(objectives, objectives[1:]):
        assert cur <= prev + 1e-9


def _assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _oracle_kmeans_pp_init(points, k, rng):
    """The allocating k-means++ seeding, kept apart from the live one."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[int(rng.random() * n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[j] = points[int(rng.random() * n)]
            continue
        cum = np.cumsum(d2 / total)
        idx = int(np.searchsorted(cum, rng.random(), side="right"))
        idx = min(idx, n - 1)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


@pytest.mark.parametrize("dup", [False, True])
def test_kmeans_pp_init_matches_oracle(dup):
    # same centroids and the same draws; with 5 distinct points and up to
    # 12 centroids, the all-distances-zero branch runs too
    for seed in range(20):
        r = np.random.default_rng(seed)
        d = int(r.integers(1, 20))
        x = r.normal(size=(60, d)) * 10.0 ** int(r.integers(-3, 4))
        if dup:
            x = x[r.integers(0, 5, size=60)]
        k = int(r.integers(1, 13))
        got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
        _assert_same_bits(numkit._kmeans_pp_init(numkit.CentroidScreen(x),
                                                 k, got_rng),
                          _oracle_kmeans_pp_init(x, k, want_rng))
        assert got_rng.random() == want_rng.random()


def _oracle_kmeans_single(points, k, iterations, rng, reseeds):
    """The (n, k, d) broadcast Lloyd loop that `kmeans_fit` replaced;
    appends to `reseeds` each time an empty cluster is re-seeded."""
    n = points.shape[0]
    centroids = _oracle_kmeans_pp_init(points, k, rng)
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(d2, axis=1)
        for j in range(k):
            mask = new_assign == j
            if mask.any():
                centroids[j] = points[mask].mean(axis=0)
            else:
                far = int(np.argmax(d2[np.arange(n), new_assign]))
                centroids[j] = points[far]
                new_assign[far] = j
                reseeds.append(j)
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return centroids, np.argmin(d2, axis=1)


def _oracle_kmeans_fit(points, k, seed, reseeds, iterations=50, n_init=8):
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        centroids, assign = _oracle_kmeans_single(points, k, iterations, rng,
                                                  reseeds)
        obj = kmeans_objective(points, centroids, assign)
        if best is None or obj < best[0] - 1e-12:
            best = (obj, centroids, assign)
    return best[1], best[2]


def _clustered(rng, n, d, n_centers, offset=0.0):
    centers = 3.0 * rng.normal(size=(n_centers, d))
    return (centers[rng.integers(0, n_centers, size=n)]
            + 0.5 * rng.normal(size=(n, d)) + offset)


@pytest.mark.parametrize("k", [1, 16, 64])
@pytest.mark.parametrize("data", ["clustered", "grid", "offset", "line"])
def test_kmeans_matches_broadcast_oracle(data, k):
    rng = np.random.default_rng(k)
    if data == "clustered":
        x = _clustered(rng, 600, 32, 24)
    elif data == "grid":
        # few distinct integer points, many repeated: exact distance ties
        x = rng.integers(0, 4, size=(500, 3)).astype(np.float64)
    elif data == "offset":
        # far from the origin, where the GEMM form cancels worst
        x = _clustered(rng, 400, 16, 12, offset=1e3)
    else:
        # one column: the centroid sums take the pairwise-sum path
        x = _clustered(rng, 300, 1, 9)
    centroids, assign = kmeans_fit(x, k, seed=5)
    want_c, want_a = _oracle_kmeans_fit(x, k, 5, [])
    _assert_same_bits(centroids, want_c)
    assert np.array_equal(assign, want_a)


@pytest.mark.parametrize("d", [1, 2])
def test_kmeans_converging_right_after_reseed(monkeypatch, d):
    # centroid 1 owns no point, so step 1 re-seeds it to 4.0, the point
    # farthest from its centroid, after cluster 0's mean took 4.0 in.
    # Step 2 repeats step 1's assignment, but the centroids are not its
    # means: they must be recomputed, not returned as they stand.
    x = np.zeros((4, d))
    x[:, 0] = [0.0, 4.0, 20.0, 21.0]
    init = np.zeros((3, d))
    init[:, 0] = [1.0, 100.0, 20.0]
    monkeypatch.setattr(numkit, "_kmeans_pp_init",
                        lambda screen, k, rng: init.copy())
    centroids, assign = kmeans_fit(x, 3, n_init=1)
    want = np.zeros((3, d))
    want[:, 0] = [0.0, 4.0, 20.5]
    _assert_same_bits(centroids, want)
    assert assign.tolist() == [0, 1, 2, 2]


def test_kmeans_reseed_matches_broadcast_oracle():
    # 8 distinct points, each repeated, for 11 clusters: k-means++ repeats
    # centroids, so empty clusters are re-seeded, in cluster order, to the
    # point farthest from its centroid before the update
    reseeds = []
    for seed in range(5):
        r = np.random.default_rng(seed)
        x = np.repeat(r.normal(size=(8, 2)), r.integers(1, 6, size=8), axis=0)
        want_c, want_a = _oracle_kmeans_fit(x, 11, 0, reseeds)
        centroids, assign = kmeans_fit(x, 11, seed=0)
        _assert_same_bits(centroids, want_c)
        assert np.array_equal(assign, want_a), seed
    assert reseeds


@pytest.mark.parametrize("offset", [0.0, 1.0, 1e3])
def test_nearest_centroid_matches_broadcast_on_near_ties(offset):
    # points near the bisector of a centroid pair: the two distances agree
    # to rounding, so the GEMM screen alone often picks the other one
    r = np.random.default_rng(1)
    c = r.normal(size=(8, 16)) + offset
    a, b = r.integers(0, 8, size=400), r.integers(0, 8, size=400)
    u = c[a] - c[b]
    w = r.normal(size=(400, 16))
    w -= (np.sum(w * u, axis=1)
          / np.maximum(np.sum(u * u, axis=1), 1e-300))[:, None] * u
    x = (c[a] + c[b]) / 2 + 0.1 * w
    want = np.argmin(np.sum((x[:, None, :] - c[None, :, :]) ** 2, axis=2),
                     axis=1)
    screen = numkit.CentroidScreen(x, c)
    np.testing.assert_array_equal(screen.nearest(c), want)
    assert screen.fallback_rows > 0  # the data does exercise the bound


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       d=st.integers(1, 9), k=st.integers(1, 12),
       offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
       grid=st.booleans())
def test_nearest_centroid_matches_broadcast_argmin(seed, n, d, k, offset,
                                                   grid):
    # repeated points, centroids that repeat or sit on points, and clouds
    # far from the origin, on a small integer grid (exact ties) or not
    r = np.random.default_rng(seed)
    if grid:
        x = r.integers(-2, 3, size=(n, d)).astype(np.float64)
        c = r.integers(-2, 3, size=(k, d)).astype(np.float64)
    else:
        x = r.normal(size=(n, d))
        c = r.normal(size=(k, d))
    x[n // 2:] = x[r.integers(0, max(1, n // 2), size=n - n // 2)]
    c[k // 2:] = c[r.integers(0, max(1, k // 2), size=k - k // 2)]
    c[::3] = x[r.integers(0, n, size=c[::3].shape[0])]
    x += offset
    c += offset
    want = np.argmin(np.sum((x[:, None, :] - c[None, :, :]) ** 2, axis=2),
                     axis=1)
    np.testing.assert_array_equal(nearest_centroid(x, c), want)


def test_kmeans_k_too_large():
    with pytest.raises(ConfigurationError):
        kmeans_fit(np.zeros((3, 2)), k=4)


@pytest.mark.parametrize("args", [
    {"k": 0}, {"k": 2.5}, {"k": "2"}, {"iterations": -1},
    {"iterations": 1.5}, {"n_init": 0}, {"seed": -1}])
def test_kmeans_rejects_bad_arguments(args):
    with pytest.raises(ConfigurationError):
        kmeans_fit(np.zeros((3, 2)), **{"k": 2, **args})


# --- the float32 screen -----------------------------------------------------

def _broadcast_nearest(x, c):
    return np.argmin(np.sum((x[:, None, :] - c[None, :, :]) ** 2, axis=2),
                     axis=1)


_SCALES = [1e-300, 1e-150, 1e-40, 1e-3, 1.0, 1e40, 1e150, 1e300]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80),
       d=st.integers(1, 10), k=st.integers(1, 12), k_is_n=st.booleans(),
       scale=st.sampled_from(_SCALES),
       offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]))
def test_screen_matches_broadcast_on_float32_near_ties(seed, n, d, k, k_is_n,
                                                       scale, offset):
    # points on bisectors, 1-4 float32 ulps off, with repeated points and
    # centroids, far from the origin and at magnitudes float32 cannot hold
    r = np.random.default_rng(seed)
    k = n if k_is_n else k
    c = r.normal(size=(k, d))
    c[k // 2:] = c[r.integers(0, max(1, k // 2), size=k - k // 2)]
    x = near_float32_ties(r, c, n, 4)
    x[n // 2:] = x[r.integers(0, max(1, n // 2), size=n - n // 2)]
    x, c = (x + offset) * scale, (c + offset) * scale
    with np.errstate(over="ignore", under="ignore"):
        want = _broadcast_nearest(x, c)
        np.testing.assert_array_equal(nearest_centroid(x, c), want)
        np.testing.assert_array_equal(numkit.CentroidScreen(x).nearest(c),
                                      want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 120),
       d=st.integers(1, 4), k=st.integers(1, 16), k_is_n=st.booleans(),
       scale=st.sampled_from(_SCALES), offset=st.sampled_from([0.0, 1e3, 1e6]))
@example(seed=0, n=40, d=3, k=6, k_is_n=False, scale=1.0, offset=1e3)
def test_kmeans_matches_broadcast_oracle_at_any_scale(seed, n, d, k, k_is_n,
                                                      scale, offset):
    # a few grid points, each repeated: centroids that are means of them
    # leave many points at exact distance ties, which float32 rounding
    # of the shifted sets would break either way; k = n up to 30 points
    r = np.random.default_rng(seed)
    n = min(n, 30) if k_is_n else n
    k = n if k_is_n else min(k, n)
    x = (r.integers(0, 3, size=(n, d)) + offset) * scale
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want_c, want_a = _oracle_kmeans_fit(x, k, seed % 7, [])
        centroids, assign = kmeans_fit(x, k, seed=seed % 7)
    assert np.array_equal(centroids, want_c, equal_nan=True)
    assert np.array_equal(assign, want_a)


@pytest.mark.parametrize("scale, offset", [
    (1.0, 0.0), (1e-40, 0.0), (1e40, 0.0), (1.0, 1e3), (1.0, 1e6),
    (1e-150, 0.0), (1e150, 0.0), (1e-30, 1e6)])
def test_screen_settles_clouds_float32_cannot_hold(scale, offset):
    # shifted and scaled, such clouds screen as a unit cloud does: only a
    # handful of points, if any, are recomputed in the broadcast form
    r = np.random.default_rng(3)
    x = _clustered(r, 500, 16, 12)
    c = x[r.choice(500, size=12, replace=False)] + 0.1
    x, c = (x + offset) * scale, (c + offset) * scale
    screen = numkit.CentroidScreen(x)
    np.testing.assert_array_equal(screen.nearest(c), _broadcast_nearest(x, c))
    assert screen.fallback_rows <= 5


def test_screen_counts_recomputed_rows():
    # every point is equidistant from two identical centroids: an exact
    # tie, so every row is recomputed, and the lower index wins
    x = np.random.default_rng(0).normal(size=(30, 4))
    c = np.array([[5.0, 0, 0, 0], [1.0, 1, 1, 1], [1.0, 1, 1, 1]]) * 10
    x[:, :] += c[1]
    screen = numkit.CentroidScreen(x)
    assert screen.nearest(c).tolist() == [1] * 30
    assert screen.fallback_rows == 30
    screen.nearest(c[:2])  # no tie left: nothing recomputed
    assert screen.fallback_rows == 30


def test_screen_takes_centroids_past_its_range():
    # centroids 2^30 times farther than the points reach get a screen of
    # their own, fitted to both sets; non-finite ones are recomputed
    r = np.random.default_rng(4)
    x = r.normal(size=(50, 3))
    c = np.vstack([r.normal(size=(3, 3)), [[2.0 ** 30, 0, 0]]])
    screen = numkit.CentroidScreen(x)
    np.testing.assert_array_equal(screen.nearest(c), _broadcast_nearest(x, c))
    c[0, 0] = np.nan
    np.testing.assert_array_equal(screen.nearest(c), _broadcast_nearest(x, c))


# --- the screened k-means++ seeding -----------------------------------------

def _seeding_points(r, n, d, kind, scale, offset):
    """n points whose distances to the ones the seeding draws tie: a
    small integer grid (exact ties), or a few anchors with points 1-4
    float32 ulps off their bisectors (near ties), or normal points; the
    last quarter repeats earlier points."""
    if kind == "grid":
        x = r.integers(0, 3, size=(n, d)).astype(np.float64)
    elif kind == "ties":
        anchors = r.normal(size=(max(1, n // 8), d))
        x = np.vstack([anchors, near_float32_ties(r, anchors,
                                                  n - len(anchors), 4)])
    else:
        x = r.normal(size=(n, d))
    x[n - n // 4:] = x[r.integers(0, n - n // 4, size=n // 4)]
    return (x + offset) * scale


_SEEDING_DATA = dict(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
    d=st.sampled_from([1, 2, 3, 8]),
    kind=st.sampled_from(["grid", "ties", "normal"]),
    scale=st.sampled_from(_SCALES), offset=st.sampled_from([0.0, 1.0, 1e6]))


@settings(max_examples=150, deadline=None)
@given(**_SEEDING_DATA, k=st.integers(1, 12), k_is_n=st.booleans())
def test_kmeans_pp_init_matches_oracle_at_any_scale(seed, n, d, kind, scale,
                                                    offset, k, k_is_n):
    # the same centroids and the same draws, the rng's next one included
    r = np.random.default_rng(seed)
    x = _seeding_points(r, n, d, kind, scale, offset)
    k = n if k_is_n else min(k, n)
    got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = numkit._kmeans_pp_init(numkit.CentroidScreen(x), k, got_rng)
        want = _oracle_kmeans_pp_init(x, k, want_rng)
    _assert_same_bits(got, want)
    assert got_rng.random() == want_rng.random()


@settings(max_examples=150, deadline=None)
@given(**_SEEDING_DATA, order=st.randoms(use_true_random=False))
def test_screen_lower_matches_broadcast_minimum(seed, n, d, kind, scale,
                                                offset, order):
    # every round's distances, bit for bit; the ties data lowers by its
    # anchors, where each other point's new distance ties its d2 to
    # within a few float32 ulps
    r = np.random.default_rng(seed)
    x = _seeding_points(r, n, d, kind, scale, offset)
    picks = list(range(n))
    order.shuffle(picks)
    if kind == "ties":
        picks.sort(key=lambda i: i >= max(1, n // 8))
    screen = numkit.CentroidScreen(x)
    d2 = np.full(n, np.inf)
    bound = np.full(n, np.inf, dtype=np.float32)
    want = np.full(n, np.inf)
    with np.errstate(over="ignore", under="ignore"):
        for i in picks[:12]:
            screen.lower(i, d2, bound)
            np.minimum(want, np.sum((x - x[i]) ** 2, axis=1), out=want)
            _assert_same_bits(d2, want)


def test_seeding_screen_settles_most_rows():
    # on clustered points most rows are farther from each new centroid
    # than from one drawn before, and the screen settles them
    r = np.random.default_rng(6)
    x = _clustered(r, 1000, 32, 16, offset=5.0)
    screen = numkit.CentroidScreen(x)
    got_rng, want_rng = np.random.default_rng(2), np.random.default_rng(2)
    for _ in range(4):
        _assert_same_bits(numkit._kmeans_pp_init(screen, 16, got_rng),
                          _oracle_kmeans_pp_init(x, 16, want_rng))
    # 15 rounds of 1,000 rows per seeding, the first one recomputed whole
    assert screen.fallback_rows < 0.5 * 4 * 15 * 1000


@pytest.mark.parametrize("points", [np.zeros(6), np.zeros((2, 3, 2)),
                                    np.zeros((6, 0))])
def test_kmeans_rejects_points_of_wrong_rank(points):
    with pytest.raises(ShapeError, match="points must be an"):
        kmeans_fit(points, k=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_points(bad):
    x = np.random.default_rng(0).normal(size=(10, 3))
    x[4, 1] = bad
    with pytest.raises(NumericError, match="non-finite point"):
        kmeans_fit(x, k=2)
