"""Synthetic hierarchical ad catalogs.

Items carry three feature blocks (visual-like, text-like, attribute
one-hots) plus a 3-level category path.  With the ambiguity flag on,
sibling leaves under one mid-level node share their visual and text
prototypes, so only the attribute block separates them at the finest
level.  Also builds the per-level positive sets used by the
multi-granularity contrastive objective.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError

LEVELS = 3

_L1_WORDS = ["apparel", "electronics", "grocery", "beauty",
             "sports", "toys", "auto", "garden"]
_L2_WORDS = ["basics", "premium", "outdoor", "seasonal",
             "kids", "office", "travel", "party"]
_L3_WORDS = ["classic", "mini", "pro", "eco",
             "deluxe", "bundle", "lite", "max"]


@dataclass(frozen=True)
class CatalogSpec:
    branching: tuple[int, int, int] = (4, 4, 4)
    n_items: int = 2048
    dv: int = 16
    dt: int = 16
    noise_std: float = 0.3
    ambiguity: bool = True
    train_fraction: float = 0.9
    seed: int = 7

    @property
    def n_leaves(self) -> int:
        b1, b2, b3 = self.branching
        return b1 * b2 * b3

    @property
    def attr_dim(self) -> int:
        b1, b2, b3 = self.branching
        return b1 + b1 * b2 + b1 * b2 * b3

    @property
    def feature_dim(self) -> int:
        return self.dv + self.dt + self.attr_dim

    def validate(self) -> None:
        if any(b <= 0 for b in self.branching):
            raise ConfigurationError(f"non-positive branching {self.branching}")
        if self.n_items < self.n_leaves:
            raise ConfigurationError(
                f"n_items={self.n_items} < leaves={self.n_leaves}")
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be >= 0")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ConfigurationError("train_fraction must be in (0, 1]")


@dataclass
class CategoryTree:
    """Node ids are dense per level: a level-2 node under level-1 node a is
    a*B2 + j; a leaf under level-2 node m is m*B3 + k."""

    branching: tuple[int, int, int]
    names: dict[int, list[str]]  # level (1..3) -> names indexed by node id

    def parent_l2(self, leaf: int) -> int:
        return leaf // self.branching[2]

    def parent_l1(self, l2: int) -> int:
        return l2 // self.branching[1]

    def path(self, leaf: int) -> tuple[int, int, int]:
        c2 = self.parent_l2(leaf)
        return (self.parent_l1(c2), c2, leaf)

    @property
    def n_leaves(self) -> int:
        b1, b2, b3 = self.branching
        return b1 * b2 * b3


def build_tree(branching: tuple[int, int, int]) -> CategoryTree:
    b1, b2, b3 = branching
    names = {
        1: [f"{_L1_WORDS[i % len(_L1_WORDS)]}-{i}" for i in range(b1)],
        2: [f"{_L2_WORDS[i % len(_L2_WORDS)]}-{i}" for i in range(b1 * b2)],
        3: [f"{_L3_WORDS[i % len(_L3_WORDS)]}-{i}" for i in range(b1 * b2 * b3)],
    }
    return CategoryTree(branching=branching, names=names)


@dataclass
class Item:
    id: int
    visual: np.ndarray
    text: np.ndarray
    attr: np.ndarray
    labels: tuple[int, int, int]
    summary: np.ndarray | None = None  # filled by the summarizer module

    def features(self) -> np.ndarray:
        return np.concatenate([self.visual, self.text, self.attr])


@dataclass
class ItemCatalog:
    spec: CatalogSpec
    tree: CategoryTree
    items: list[Item]
    train_ids: list[int]
    test_ids: list[int]

    def features_matrix(self, ids=None) -> np.ndarray:
        if ids is None:
            ids = range(len(self.items))
        return np.stack([self.items[i].features() for i in ids])

    def labels_array(self) -> np.ndarray:
        return np.array([it.labels for it in self.items], dtype=np.int64)


def _attr_onehot(spec: CatalogSpec, path: tuple[int, int, int]) -> np.ndarray:
    b1, b2, _ = spec.branching
    c1, c2, c3 = path
    v = np.zeros(spec.attr_dim, dtype=np.float64)
    v[c1] = 1.0
    v[b1 + c2] = 1.0
    v[b1 + b1 * b2 + c3] = 1.0
    return v


def generate_catalog(spec: CatalogSpec) -> ItemCatalog:
    """Deterministic catalog generation; bit-identical for equal specs."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    tree = build_tree(spec.branching)
    n_leaves = spec.n_leaves

    # one visual / text prototype per leaf, drawn once from the seed;
    # with ambiguity on, all leaves of a level-2 node share prototypes
    if spec.ambiguity:
        n_l2 = spec.branching[0] * spec.branching[1]
        proto_v_l2 = rng.normal(size=(n_l2, spec.dv))
        proto_t_l2 = rng.normal(size=(n_l2, spec.dt))
        proto_v = np.stack([proto_v_l2[tree.parent_l2(c3)] for c3 in range(n_leaves)])
        proto_t = np.stack([proto_t_l2[tree.parent_l2(c3)] for c3 in range(n_leaves)])
    else:
        proto_v = rng.normal(size=(n_leaves, spec.dv))
        proto_t = rng.normal(size=(n_leaves, spec.dt))

    items = []
    for i in range(spec.n_items):
        leaf = i % n_leaves
        path = tree.path(leaf)
        visual = proto_v[leaf] + spec.noise_std * rng.normal(size=spec.dv)
        text = proto_t[leaf] + spec.noise_std * rng.normal(size=spec.dt)
        items.append(Item(id=i, visual=visual, text=text,
                          attr=_attr_onehot(spec, path), labels=path))

    perm = rng.permutation(spec.n_items)
    n_train = int(round(spec.train_fraction * spec.n_items))
    train_ids = sorted(int(i) for i in perm[:n_train])
    test_ids = sorted(int(i) for i in perm[n_train:])
    return ItemCatalog(spec=spec, tree=tree, items=items,
                       train_ids=train_ids, test_ids=test_ids)


def leaf_prototypes(spec: CatalogSpec) -> tuple[np.ndarray, np.ndarray]:
    """Re-derive the per-leaf prototypes a generation run drew (same rng
    consumption order as generate_catalog); used by tests."""
    rng = np.random.default_rng(spec.seed)
    tree = build_tree(spec.branching)
    n_leaves = spec.n_leaves
    if spec.ambiguity:
        n_l2 = spec.branching[0] * spec.branching[1]
        pv2 = rng.normal(size=(n_l2, spec.dv))
        pt2 = rng.normal(size=(n_l2, spec.dt))
        pv = np.stack([pv2[tree.parent_l2(c)] for c in range(n_leaves)])
        pt = np.stack([pt2[tree.parent_l2(c)] for c in range(n_leaves)])
        return pv, pt
    return (rng.normal(size=(n_leaves, spec.dv)),
            rng.normal(size=(n_leaves, spec.dt)))


@dataclass
class GranularPositives:
    """Batch-restricted positive sets: positives[l][i] holds the batch
    positions whose labels agree with item i on levels 1..l+1, and
    masks[l] is the same relation as an (n, n) boolean matrix with a
    false diagonal."""

    ids: list[int]
    positives: list[list[np.ndarray]]  # [level][batch position] -> positions
    masks: list[np.ndarray]            # [level] -> (n, n) bool


def build_positive_sets(catalog: ItemCatalog,
                        batch: list[int]) -> GranularPositives:
    if len(set(batch)) != len(batch):
        raise InputError("duplicate ids in batch")
    n_items = len(catalog.items)
    for i in batch:
        if not 0 <= i < n_items:
            raise InputError(f"item id {i} not in catalog")
    labels = np.array([catalog.items[i].labels for i in batch], dtype=np.int64)
    n = len(batch)
    positives, masks = [], []
    prev = np.ones((n, n), dtype=bool)
    for level in range(LEVELS):
        # label-path consistency makes agreement at level l imply
        # agreement at all coarser levels, but intersect explicitly
        agree = (labels[:, level][:, None] == labels[:, level][None, :]) & prev
        prev = agree.copy()
        np.fill_diagonal(agree, False)
        # one nonzero for the whole level, split into per-row slices
        _, cols = np.nonzero(agree)
        ends = np.cumsum(agree.sum(axis=1)).tolist()
        positives.append([cols[a:b] for a, b in zip([0] + ends[:-1], ends)])
        masks.append(agree)
    return GranularPositives(ids=list(batch), positives=positives, masks=masks)


# --- JSON persistence -------------------------------------------------------

def _round9(x: float) -> float:
    return float(f"{x:.9g}")


def _block(v: np.ndarray) -> list[float]:
    return [_round9(x) for x in v]


def save_catalog(catalog: ItemCatalog, path: str, digest: str = "") -> None:
    """One UTF-8 JSON document; float blocks at 9 significant digits."""
    spec = catalog.spec
    doc = {
        "config_digest": digest,
        "spec": {
            "branching": list(spec.branching), "n_items": spec.n_items,
            "dv": spec.dv, "dt": spec.dt, "noise_std": spec.noise_std,
            "ambiguity": spec.ambiguity,
            "train_fraction": spec.train_fraction, "seed": spec.seed,
        },
        "tree": {str(k): v for k, v in catalog.tree.names.items()},
        "split": {"train": catalog.train_ids, "test": catalog.test_ids},
        "items": [
            {
                "id": it.id, "labels": list(it.labels),
                "visual": _block(it.visual), "text": _block(it.text),
                "attr": [int(x) for x in it.attr],
            }
            for it in catalog.items
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))


def load_catalog(path: str) -> ItemCatalog:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    s = doc["spec"]
    spec = CatalogSpec(branching=tuple(s["branching"]), n_items=s["n_items"],
                       dv=s["dv"], dt=s["dt"], noise_std=s["noise_std"],
                       ambiguity=s["ambiguity"],
                       train_fraction=s["train_fraction"], seed=s["seed"])
    tree = CategoryTree(branching=spec.branching,
                        names={int(k): v for k, v in doc["tree"].items()})
    items = [
        Item(id=d["id"],
             visual=np.array(d["visual"], dtype=np.float64),
             text=np.array(d["text"], dtype=np.float64),
             attr=np.array(d["attr"], dtype=np.float64),
             labels=tuple(d["labels"]))
        for d in doc["items"]
    ]
    return ItemCatalog(spec=spec, tree=tree, items=items,
                       train_ids=doc["split"]["train"],
                       test_ids=doc["split"]["test"])
