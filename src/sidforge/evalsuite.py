"""Evaluation suite: entropy-based V-measure over SID prefixes, a compact
next-SID sequence model with beam-search Hit-Rate, and sampled-negative
embedding retrieval recall.
"""

from __future__ import annotations

import bisect
import csv
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .catalog import ItemCatalog
from .errors import ConfigurationError, InputError
from .numkit import MlpParams


# --- V-measure --------------------------------------------------------------

def make_contingency(clusters, labels) -> np.ndarray:
    """(n_clusters, n_labels) counts of each (cluster, label) pair."""
    cl = list(clusters)
    la = list(labels)
    if len(cl) != len(la) or not cl:
        raise InputError("clusters and labels must be nonempty, same length")
    cvals = sorted(set(cl), key=repr)
    lvals = sorted(set(la), key=repr)
    cidx = {v: i for i, v in enumerate(cvals)}
    lidx = {v: i for i, v in enumerate(lvals)}
    counts = np.zeros((len(cvals), len(lvals)), dtype=np.int64)
    for c, l in zip(cl, la):
        counts[cidx[c], lidx[l]] += 1
    return counts


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def v_measure(clusters, labels) -> tuple[float, float, float]:
    """Homogeneity, completeness, and their harmonic mean, from
    natural-log entropies of the contingency table of two parallel
    sequences."""
    counts = make_contingency(clusters, labels)
    n = counts.sum()
    joint = counts / n
    h_label = _entropy(counts.sum(axis=0) / n)
    h_cluster = _entropy(counts.sum(axis=1) / n)
    h_joint = _entropy(joint.reshape(-1))
    h_label_given_cluster = h_joint - h_cluster
    h_cluster_given_label = h_joint - h_label
    h = 1.0 if h_label == 0.0 else 1.0 - h_label_given_cluster / h_label
    c = 1.0 if h_cluster == 0.0 else 1.0 - h_cluster_given_label / h_cluster
    v = 0.0 if h + c == 0.0 else 2 * h * c / (h + c)
    return h, c, v


def sid_level_vmeasure(sid_table: dict[int, tuple], catalog: ItemCatalog,
                       level: int) -> float:
    """V-measure of the level-(1..level) SID prefix clustering of the test
    split against leaf category labels."""
    ids = catalog.test_ids
    for i in ids:
        if i not in sid_table:
            raise InputError(f"item {i} missing from SID table")
    clusters = [tuple(sid_table[i][:level]) for i in ids]
    labels = catalog.labels[ids, 2].tolist()
    return v_measure(clusters, labels)[2]


# --- synthetic user sequences ----------------------------------------------

def gen_user_sequences(catalog: ItemCatalog, n_users: int, T: int = 20,
                       seed: int = 0, preference: float = 0.8
                       ) -> np.ndarray:
    """A read-only (n_users, T) int64 array of item ids, one row per
    user: columns 0..T-2 are the history and column T-1 is the held-out
    next-item target.  Each user favors two level-2 subtrees: items are
    drawn from a preferred subtree with probability `preference`, else
    uniformly.

    The draw is a fixed set of whole-array draws from `seed`, in this
    order: the preferred nodes (the first two columns of an argsort of
    an (n_users, n_l2) uniform matrix), then four (n_users, T) arrays:
    which preferred node, the item inside it, a uniform item, and the
    preference coin."""
    numkit.require("seed", seed, "int", ">= 0")
    numkit.require("n_users", n_users, "int", ">= 0")
    numkit.require("T", T, "int", ">= 2")
    numkit.require("preference", preference, "number", ">= 0", "<= 1")
    if not catalog.items:
        raise InputError("empty catalog")
    n_items = len(catalog.items)
    if T >= n_items:
        raise ConfigurationError("T must be smaller than the catalog")
    b1, b2, _ = catalog.spec.branching
    n_l2 = b1 * b2
    # item ids grouped by level-2 node: node c holds
    # by_l2[start[c]:start[c] + size[c]]
    l2 = catalog.labels[:, 1]
    by_l2 = np.argsort(l2, kind="stable")
    size = np.bincount(l2, minlength=n_l2)
    if not size.all():
        raise InputError("every level-2 node needs an item")
    start = np.cumsum(size) - size
    rng = np.random.default_rng(seed)
    prefs = np.argsort(rng.random((n_users, n_l2)), axis=1)[:, :2]
    node = np.take_along_axis(
        prefs, rng.integers(prefs.shape[1], size=(n_users, T)), axis=1)
    inside = by_l2[start[node] + rng.integers(size[node])]
    uniform = rng.integers(n_items, size=(n_users, T))
    items = np.where(rng.random((n_users, T)) < preference, inside, uniform)
    items.flags.writeable = False
    return items


# --- next-SID model ---------------------------------------------------------

@dataclass(frozen=True)
class NextSidConfig:
    L: int = numkit.rule("int", ">= 1", default=3)
    K: int = numkit.rule("int", ">= 1", default=16)
    d_s: int = numkit.rule("int", ">= 1", default=32)
    hidden: int = numkit.rule("int", ">= 1", default=32)
    # history 0 would leave no item to average over
    history: int = numkit.rule("int", ">= 1", default=5)
    epochs: int = numkit.rule("int", ">= 0", default=10)
    batch_size: int = numkit.rule("int", ">= 1", default=64)
    lr: float = numkit.rule("number", "> 0", default=1e-3)
    seed: int = numkit.rule("int", ">= 0", default=0)

    def validate(self) -> None:
        numkit.check(self, "eval.next_sid")


@dataclass
class NextSidModel:
    table: np.ndarray            # (L*K, d_s) token embeddings
    scorers: list[MlpParams]     # scorer l: d_s + l*K -> K
    config: NextSidConfig


def init_next_sid(config: NextSidConfig) -> NextSidModel:
    config.validate()
    rng = np.random.default_rng(config.seed)
    table = numkit.quantize_f32(
        0.1 * rng.normal(size=(config.L * config.K, config.d_s)))
    scorers = []
    for lvl in range(config.L):
        m = numkit.mlp_init([config.d_s + lvl * config.K, config.hidden,
                             config.K], rng)
        # zero final layer: an untrained model scores uniformly
        m.weights[-1] = np.zeros_like(m.weights[-1])
        m.biases[-1] = np.zeros_like(m.biases[-1])
        scorers.append(m)
    return NextSidModel(table=table, scorers=scorers, config=config)


def next_sid_size(config: NextSidConfig) -> int:
    """The parameter count of `init_next_sid(config)`: the (L*K, d_s)
    table, and per level l a scorer d_s + l*K -> hidden -> K."""
    L, K, d_s, hidden = config.L, config.K, config.d_s, config.hidden
    return (L * (K * d_s + d_s * hidden + hidden + hidden * K + K)
            + hidden * K * L * (L - 1) // 2)


def _sids(items: list[int], sid_table: dict[int, tuple]) -> list[tuple]:
    """The SIDs of the item ids `items`."""
    try:
        return [sid_table[item] for item in items]
    except KeyError as e:
        raise InputError(f"item {e.args[0]} has no SID") from None


def _tokens(sids: list[tuple], L: int) -> np.ndarray:
    """The (len(sids), L) int64 array of `sids`, each L tokens long."""
    try:
        return np.array(sids, dtype=np.int64).reshape(len(sids), L)
    except ValueError:  # SIDs of another length, or of mixed lengths
        raise InputError(f"every SID must be L = {L} tokens long") from None


@functools.cache
def _level_offsets(L: int, K: int) -> np.ndarray:
    """Level l's table rows start at l*K; shared by every call, so never
    written."""
    offsets = np.arange(0, L * K, K)
    offsets.flags.writeable = False
    return offsets


def _tail_rows(sequences, sid_table: dict[int, tuple],
               config: NextSidConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (n, h, L) table rows of the last h = min(history, T - 1)
    history items of each of the n sequences, and the (n, L) SID tokens
    of their targets, from one SID lookup of the last h + 1 columns.

    `sequences` is an (n, T) integer array-like, T >= 2, as
    `gen_user_sequences` returns: each row a user's history, then the
    target."""
    try:
        seqs = np.asarray(sequences)
    except ValueError:  # rows of different lengths
        seqs = None
    if (seqs is None or seqs.ndim != 2 or seqs.shape[1] < 2
            or seqs.dtype.kind not in "iu"):
        raise InputError("sequences must be an (n, T) integer array with "
                         "T >= 2")
    n, T = seqs.shape
    h = min(config.history, T - 1)
    tokens = _tokens(_sids(seqs[:, T - h - 1:].ravel().tolist(), sid_table),
                     config.L).reshape(n, h + 1, config.L)
    rows = tokens[:, :h]
    rows += _level_offsets(config.L, config.K)
    return rows, tokens[:, h]


def _mean_rows(table: np.ndarray, rows: np.ndarray, h: int) -> np.ndarray:
    """The mean over each run of h consecutive (m, L) `rows` of their
    summed level-token embeddings, one row per run.

    The runs are summed with `np.add.reduceat` from uniform starts: its
    summation order is not `np.add.reduce`'s along an item axis, and off
    the float32 grid the two round differently."""
    items = np.add.reduce(table[rows], axis=1)
    out = np.add.reduceat(items, np.arange(0, len(rows), h), axis=0)
    out /= h
    return out


def _histories(model: NextSidModel, sequences, sid_table: dict[int, tuple]
               ) -> tuple[np.ndarray, list[tuple]]:
    """The (n, d_s) history vectors of the (n, T) `sequences`, each the
    mean over the last h items of their summed level-token embeddings,
    and the n target SIDs.

    A served query, a list holding one row array, runs the same
    arithmetic on the row alone: the (1, T) array and its 2-D slices
    cost about 3 us, a few per cent of the query."""
    c = model.config
    if (type(sequences) is list and len(sequences) == 1
            and type(sequences[0]) is np.ndarray):
        row = sequences[0]
        if row.ndim == 1 and len(row) >= 2 and row.dtype.kind in "iu":
            h = min(c.history, len(row) - 1)
            sids = _sids(row[-h - 1:].tolist(), sid_table)
            rows = _tokens(sids, c.L)[:-1]  # checks the target's too
            rows += _level_offsets(c.L, c.K)
            return _mean_rows(model.table, rows, h), [tuple(sids[-1])]
    rows, targets = _tail_rows(sequences, sid_table, c)
    n, h, L = rows.shape
    return (_mean_rows(model.table, rows.reshape(n * h, L), h),
            list(map(tuple, targets.tolist())))


def _loss_grads(model: NextSidModel, rows: np.ndarray, targets: np.ndarray,
                loss: bool = True):
    """Teacher-forced cross-entropy over all L levels of the target SID,
    averaged over the sequences, from their (n, h, L) tail rows and
    (n, L) target tokens (`_tail_rows`).  Returns (loss, table grad,
    scorer grads); with loss=False the log-sum-exp and the loss are
    skipped and the loss is None.

    Each sequence's scorer input is one row of a full-width buffer, as
    in `beam_decode`: the history vector, then the one-hot blocks of the
    target's first L - 1 tokens; level l's scorer reads the first
    d_s + l*K columns.  The row max's shifted exp is taken once per
    level and serves the log-sum-exp and the softmax alike."""
    c = model.config
    n, h, _ = rows.shape
    at = np.arange(n)
    x = np.zeros((n, c.d_s + (c.L - 1) * c.K))
    x[:, :c.d_s] = _mean_rows(model.table, rows.reshape(n * h, -1), h)
    x[at[:, None], c.d_s + _level_offsets(c.L - 1, c.K)
      + targets[:, :-1]] = 1.0
    total = 0.0 if loss else None
    g_hist = np.zeros((n, c.d_s))
    scorer_grads = []
    for lvl in range(c.L):
        logits, cache = numkit.mlp_apply(model.scorers[lvl],
                                         x[:, :c.d_s + lvl * c.K])
        m = logits.max(axis=1, keepdims=True)
        soft = np.exp(logits - m)
        norm = soft.sum(axis=1, keepdims=True)
        tok = targets[:, lvl]
        if loss:
            lse = m[:, 0] + np.log(norm[:, 0])
            total += float(np.mean(lse - logits[at, tok]))
        soft /= norm
        soft[at, tok] -= 1.0
        grads, gx = numkit.mlp_grad(model.scorers[lvl], cache, soft / n)
        scorer_grads.append(grads)
        g_hist += gx[:, :c.d_s]
    # each row a sequence used gets its share of the mean, added in
    # (sequence, item, level) order: bincount starts every (row, column)
    # bin at 0.0 and adds into it in index order, as np.add.at would
    share = np.repeat(g_hist / h, h * c.L, axis=0)
    flat = rows.reshape(-1, 1) * c.d_s + np.arange(c.d_s)
    g_table = np.bincount(flat.reshape(-1), weights=share.reshape(-1),
                          minlength=model.table.size)
    return total, g_table.reshape(model.table.shape), scorer_grads


def train_next_sid(sequences, sid_table: dict[int, tuple],
                   config: NextSidConfig) -> NextSidModel:
    """Adam training of the next-SID predictor on the (n, T) `sequences`;
    deterministic per seed.

    The sequences become index arrays once; each batch indexes them."""
    model = init_next_sid(config)
    store = numkit.ParamStore(model.scorers, config.lr, extra=[model.table])
    model.table = store.extra[0]
    rows, targets = _tail_rows(sequences, sid_table, config)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        perm = rng.permutation(len(rows))
        for start in range(0, len(rows), config.batch_size):
            batch = perm[start:start + config.batch_size]
            _, g_table, scorer_grads = _loss_grads(
                model, rows[batch], targets[batch], loss=False)
            store.step([g_table] + [g for gs in scorer_grads for g in gs])
    return model


@functools.cache
def _child_blocks(K: int) -> tuple[np.ndarray, np.ndarray]:
    """The K tokens and the K x K one-hot block of a beam's children, in
    token order; shared by every call, so never written."""
    col, eye = np.arange(K), np.eye(K)
    col.flags.writeable = eye.flags.writeable = False
    return col, eye


def beam_decode(model: NextSidModel, hist_vec: np.ndarray,
                beam_width: int) -> list[tuple[float, tuple[int, ...]]]:
    """Level-by-level beam search; returns up to beam_width full SID
    sequences sorted by total log-probability (ties by token order).

    Each level scores all surviving beams in one scorer call and turns
    the scorer's fresh output into the candidates' totals in place: the
    row max, then the log of the summed exponentials, are subtracted and
    the beam scores added, the bits of `scores + log_softmax(logits)`.
    Level 0 adds nothing.  Its beam score is 0.0, and `v + 0.0` is `v`
    unless v is -0.0, which no log-softmax entry is: `l - max` is +0.0
    at the max (`x - x` is +0.0) and nonzero elsewhere (distinct floats
    never subtract to zero), and the log of a sum >= 1 is >= +0.0.
    Between levels the beams are kept in lexicographic token order, so
    the flat (beam, token) candidate index runs in that order too.

    A non-final level with at most beam_width candidates keeps them all,
    already in that order: each beam row is repeated K times and its
    children's one-hot block is the K x K identity, with no index
    bookkeeping.  When a level has more candidates than beam_width, one
    `np.partition` finds the beam_width-th largest total, and the
    candidates at or above it, taken in flat order, are the survivors.
    Only when ties at that threshold overflow the beam, or at the last
    level, are those few sorted, stably by score, so ties go to the
    lexicographically smaller SID; the first beam_width are kept, and at
    a non-final level put back in token order.  This keeps the set and
    order of a stable argsort of all the totals.

    Each beam's scorer input is one row of a full-width buffer: the
    history vector, then one one-hot block per decoded level; level l's
    scorer reads the first d_s + l*K columns."""
    if beam_width < 1:
        if beam_width < 0:
            raise ConfigurationError("beam width must be >= 0")
        return []
    K, L = model.config.K, model.config.L
    d_s = len(hist_vec)
    x = np.zeros((1, d_s + (L - 1) * K))
    x[0, :d_s] = hist_vec
    tokens = np.zeros((1, L), dtype=np.int64)
    col, eye = _child_blocks(K)
    for lvl in range(L):
        width = d_s + lvl * K
        total = numkit.mlp_apply(model.scorers[lvl], x[:, :width])[0]
        total -= np.maximum.reduce(total, axis=1, keepdims=True)
        total -= np.log(np.add.reduce(np.exp(total), axis=1, keepdims=True))
        if lvl:
            total += scores
        total = total.reshape(-1)
        last = lvl + 1 == L
        n = total.size
        if n <= beam_width and not last:
            # beam b's children are candidates b*K .. b*K + K - 1
            beams = len(x)
            scores = total[:, None]
            tokens = tokens.repeat(K, axis=0)
            tokens.reshape(beams, K, L)[:, :, lvl] = col
            x = x.repeat(K, axis=0)
            x.reshape(beams, K, -1)[:, :, width:width + K] = eye
            continue
        if n <= beam_width:
            keep = (-total).argsort(kind="stable")
        else:
            # the beam_width-th largest total lands at n - beam_width
            ranked = total.copy()
            ranked.partition(n - beam_width)
            keep = (total >= ranked[n - beam_width]).nonzero()[0]
            if last or len(keep) > beam_width:
                keep = keep[(-total[keep]).argsort(kind="stable")[:beam_width]]
                if not last:
                    keep.sort()  # back to token order for the next level
        parent, tok = np.divmod(keep, K)
        tokens = tokens[parent]
        tokens[:, lvl] = tok
        if last:
            return list(zip(total[keep].tolist(),
                            map(tuple, tokens.tolist())))
        scores = total[keep, None]
        x = x[parent]
        x[:, width:width + K] = eye[tok]


def _checked_width(k_list: list[int], beam_width: int | None) -> int:
    """The beam width `hr_at_k` decodes with, beam_width or max(k_list),
    after holding both to `numkit.require`'s rule: k_list a nonempty
    list of integers >= 1 and the beam an integer covering max(k_list).

    A plain list of ints and an int width, which a served query passes,
    take a test of well under a microsecond; anything else, np.int64 or
    a tuple too, goes through `numkit.require`, which accepts it or
    raises its own message.  `require` compares with float(max(k_list)),
    which equals max(k_list) up to 2**53."""
    if type(k_list) is list and k_list:
        for k in k_list:
            if type(k) is not int or k < 1:
                break
        else:
            top = max(k_list)
            if beam_width is None:
                return top
            if (type(beam_width) is int and beam_width >= top
                    and top <= 2 ** 53):
                return beam_width
    numkit.require("k_list", k_list, "int", ">= 1", items="+")
    top = max(k_list)
    if beam_width is None:
        return top
    numkit.require("beam_width", beam_width, "int", f">= {top}")
    return beam_width


def hr_at_k(model: NextSidModel, test_sequences,
            sid_table: dict[int, tuple], k_list: list[int],
            beam_width: int | None = None) -> dict[int, float]:
    """SID-level Hit Rate over the (n, T) `test_sequences`: a test case
    is a hit at K when the target's SID sequence appears among the
    top-K beam-decoded sequences.  The beam, max(k_list) by default,
    must cover max(k_list)."""
    beam_width = _checked_width(k_list, beam_width)
    hist, truths = _histories(model, test_sequences, sid_table)
    if not truths:
        raise InputError("no test sequences")
    # each user's 0-based hit rank; beam_width when the target is missed
    ranks = []
    for vec, truth in zip(hist, truths):
        decoded = [s for _, s in beam_decode(model, vec, beam_width)]
        ranks.append(decoded.index(truth) if truth in decoded
                     else beam_width)
    ranks.sort()
    n = len(ranks)
    return {k: bisect.bisect_left(ranks, k) / n for k in k_list}


# --- retrieval recall -------------------------------------------------------

def retrieval_recall(embed_fn, catalog: ItemCatalog, k_list: list[int],
                     n_neg: int = 99, seed: int = 0,
                     query_ids: list[int] | None = None) -> dict[int, float]:
    """Sampled-negative retrieval over the test split, or over
    `query_ids`, a nonempty list of item ids; `k_list` follows `hr_at_k`'s
    rule.

    The query view of an item zeroes its attribute block and re-noises
    its text block (seeded); candidates are the unperturbed embeddings of
    the item plus n_neg seeded-random negatives.  Rank by cosine, ties
    broken by item id.  `embed_fn` maps a (n, feature_dim) matrix to
    (n, d) embeddings.
    """
    numkit.require("k_list", k_list, "int", ">= 1", items="+")
    numkit.require("n_neg", n_neg, "int", ">= 0")
    n_items = len(catalog.items)
    if n_neg >= n_items:
        raise ConfigurationError("n_neg must be smaller than the catalog")
    if query_ids is None:
        query_ids = catalog.test_ids
    else:
        numkit.require("query_ids", query_ids, "int", ">= 0",
                       f"< {n_items}", items="+")
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
    # one full permutation per query, truncated to n_neg: pools for
    # smaller n_neg on the same seed are nested within larger ones
    pools = np.empty((len(query_ids), n_neg + 1), dtype=np.int64)
    pools[:, 0] = query_ids
    sims = np.empty(pools.shape)
    for qi, item_id in enumerate(query_ids):
        perm = rng.permutation(n_items)
        pools[qi, 1:] = perm[perm != item_id][:n_neg]
        sims[qi] = all_norm[pools[qi]] @ q_norm[qi]
    # each item's place in the (-cosine, item id) order; ids are distinct
    s0 = sims[:, :1]
    ranks = 1 + np.count_nonzero(
        (sims > s0) | ((sims == s0) & (pools < pools[:, :1])), axis=1)
    return {k: int(np.count_nonzero(ranks <= k)) / len(query_ids)
            for k in k_list}


# --- report -----------------------------------------------------------------

@dataclass
class EvalReport:
    scheme: str
    seed: int
    config_digest: str
    v_measure: list[float] | None = None     # per level
    hr: dict[int, float] | None = None
    recall: dict[int, float] | None = None
    collision: float | None = None
    distinct_prefixes: list[int] | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme, "seed": self.seed,
            "config_digest": self.config_digest,
            "v_measure": self.v_measure,
            "hr": {str(k): v for k, v in self.hr.items()} if self.hr else None,
            "recall": ({str(k): v for k, v in self.recall.items()}
                       if self.recall else None),
            "collision": self.collision,
            "distinct_prefixes": self.distinct_prefixes,
            "extra": self.extra,
        }

    def save_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)

    def save_csv(self, path: str) -> None:
        rows = []
        if self.v_measure is not None:
            for lvl, v in enumerate(self.v_measure, start=1):
                rows.append((f"v_measure_l{lvl}", v))
        for name, metrics in (("hr", self.hr), ("recall", self.recall)):
            if metrics:
                for k in sorted(metrics):
                    rows.append((f"{name}@{k}", metrics[k]))
        if self.collision is not None:
            rows.append(("collision_rate", self.collision))
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["scheme", "metric", "value"])
            for name, v in rows:
                w.writerow([self.scheme, name, f"{v:.9g}"])


def load_report(path: str) -> EvalReport:
    with open(path, encoding="utf-8") as f:
        d = json.load(f)
    return EvalReport(
        scheme=d["scheme"], seed=d["seed"],
        config_digest=d["config_digest"], v_measure=d["v_measure"],
        hr={int(k): v for k, v in d["hr"].items()} if d["hr"] else None,
        recall=({int(k): v for k, v in d["recall"].items()}
                if d["recall"] else None),
        collision=d["collision"],
        distinct_prefixes=d["distinct_prefixes"], extra=d.get("extra", {}))
