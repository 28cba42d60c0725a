"""Synthetic hierarchical ad catalogs.

Items carry three feature blocks (visual-like, text-like, attribute
one-hots) plus a 3-level category path.  The catalog keeps them as
columns: one feature matrix and one label array, indexed by item id.
With the ambiguity flag on, sibling leaves under one mid-level node share
their visual and text prototypes, so only the attribute block separates
them at the finest level.  Also builds the per-level positive sets used
by the multi-granularity contrastive objective, and reads and writes the
validated JSON catalog file.
"""

from __future__ import annotations

import array
import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import numkit
from .errors import CatalogError, ConfigurationError, InputError

LEVELS = 3

_L1_WORDS = ["apparel", "electronics", "grocery", "beauty",
             "sports", "toys", "auto", "garden"]
_L2_WORDS = ["basics", "premium", "outdoor", "seasonal",
             "kids", "office", "travel", "party"]
_L3_WORDS = ["classic", "mini", "pro", "eco",
             "deluxe", "bundle", "lite", "max"]


@dataclass(frozen=True)
class CatalogSpec:
    branching: tuple[int, int, int] = numkit.rule("int", ">= 1", items=3,
                                                 default=(4, 4, 4))
    n_items: int = numkit.rule("int", ">= 1", default=2048)
    dv: int = numkit.rule("int", ">= 0", default=16)
    dt: int = numkit.rule("int", ">= 0", default=16)
    noise_std: float = numkit.rule("number", ">= 0", default=0.3)
    ambiguity: bool = numkit.rule("bool", default=True)
    train_fraction: float = numkit.rule("number", "> 0", "<= 1", default=0.9)
    seed: int = numkit.rule("int", ">= 0", default=7)

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
        numkit.check(self, "catalog")
        if self.n_items < self.n_leaves:
            raise ConfigurationError(
                f"catalog.n_items must be >= {self.n_leaves}, its leaves")


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


def build_tree(branching: tuple[int, int, int]) -> CategoryTree:
    b1, b2, b3 = branching
    names = {
        1: [f"{_L1_WORDS[i % len(_L1_WORDS)]}-{i}" for i in range(b1)],
        2: [f"{_L2_WORDS[i % len(_L2_WORDS)]}-{i}" for i in range(b1 * b2)],
        3: [f"{_L3_WORDS[i % len(_L3_WORDS)]}-{i}" for i in range(b1 * b2 * b3)],
    }
    return CategoryTree(branching=branching, names=names)


@dataclass
class ItemCatalog:
    """The catalog as columns; an item's id is its row index.  The
    generator and the loader make both arrays read-only."""

    spec: CatalogSpec
    tree: CategoryTree
    features: np.ndarray  # (n, feature_dim) float64: visual | text | attr
    labels: np.ndarray    # (n, 3) int64 category paths
    train_ids: list[int]
    test_ids: list[int]

    @property
    def items(self) -> range:
        return range(len(self.labels))

    def features_matrix(self, ids=None) -> np.ndarray:
        """The rows of `ids` as a copy, or the whole read-only matrix."""
        return self.features if ids is None else self.features[ids]


def _assemble(spec: CatalogSpec, leaf: np.ndarray, visual: np.ndarray,
              text: np.ndarray, train_ids: list[int],
              test_ids: list[int]) -> ItemCatalog:
    """Writes the visual, text and attribute one-hot columns into one
    (n, feature_dim) buffer; the attribute block has one one-hot per
    level of the category path."""
    tree = build_tree(spec.branching)
    labels = np.stack(tree.path(leaf), axis=1)
    b1, b2, _ = spec.branching
    dv, dt = spec.dv, spec.dt
    features = np.zeros((len(labels), spec.feature_dim))
    features[:, :dv] = visual
    features[:, dv:dv + dt] = text
    features[np.arange(len(labels))[:, None],
             dv + dt + labels + np.array([0, b1, b1 + b1 * b2])] = 1.0
    features.flags.writeable = labels.flags.writeable = False
    return ItemCatalog(spec=spec, tree=tree, features=features,
                       labels=labels, train_ids=train_ids, test_ids=test_ids)


def generate_catalog(spec: CatalogSpec) -> ItemCatalog:
    """Deterministic catalog generation; bit-identical for equal specs."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    b1, b2, b3 = spec.branching
    n, dv = spec.n_items, spec.dv

    # one visual / text prototype per leaf, drawn once from the seed;
    # with ambiguity on, all leaves of a level-2 node share prototypes
    if spec.ambiguity:
        n_proto, proto_of_leaf = b1 * b2, np.arange(spec.n_leaves) // b3
    else:
        n_proto, proto_of_leaf = spec.n_leaves, np.arange(spec.n_leaves)
    proto_v = rng.normal(size=(n_proto, dv))[proto_of_leaf]
    proto_t = rng.normal(size=(n_proto, spec.dt))[proto_of_leaf]

    # item i sits in leaf i mod n_leaves and draws its visual, then its
    # text noise, after item i - 1
    leaf = np.arange(n) % spec.n_leaves
    noise = spec.noise_std * rng.normal(size=(n, dv + spec.dt))
    visual = proto_v[leaf] + noise[:, :dv]
    text = proto_t[leaf] + noise[:, dv:]

    perm = rng.permutation(n)
    n_train = int(round(spec.train_fraction * n))
    return _assemble(spec, leaf, visual, text,
                     np.sort(perm[:n_train]).tolist(),
                     np.sort(perm[n_train:]).tolist())


def build_positive_sets(catalog: ItemCatalog,
                        batch: list[int] | np.ndarray) -> np.ndarray:
    """Batch-restricted positive sets as one (LEVELS, n, n) boolean
    stack: [l, i, j] says batch positions i and j agree on levels
    1..l+1, with a false diagonal.  The paths come from the tree, so
    agreement at a level implies agreement at every coarser one."""
    ids = np.asarray(batch, dtype=np.int64)
    id_list = ids.tolist()
    if len(set(id_list)) != len(id_list):
        raise InputError("duplicate ids in batch")
    outside = ids[(ids < 0) | (ids >= len(catalog.labels))]
    if outside.size:
        raise InputError(f"item id {outside[0]} not in catalog")
    n = len(id_list)
    paths = np.ascontiguousarray(catalog.labels[ids].T)  # (LEVELS, n)
    masks = paths[:, :, None] == paths[:, None, :]
    masks.reshape(LEVELS, n * n)[:, ::n + 1] = False
    return masks


# --- JSON persistence -------------------------------------------------------

CATALOG_FORMAT = 2


def _floats9(block: np.ndarray) -> str:
    """A JSON array of the block's values, row by row, at 9 digits."""
    return "[" + ",".join(map("{:.9g}".format, block.ravel().tolist())) + "]"


def save_catalog(catalog: ItemCatalog, path: str, digest: str = "") -> None:
    """One UTF-8 JSON document holding the spec, the train and test ids,
    each item's leaf and the flattened visual and text blocks.  The tree,
    the label paths and the attribute block follow from the spec and the
    leaves."""
    dv, dt = catalog.spec.dv, catalog.spec.dt
    head = json.dumps({
        "format": CATALOG_FORMAT, "config_digest": digest,
        "spec": asdict(catalog.spec),
        "train": catalog.train_ids, "test": catalog.test_ids,
        "leaf": catalog.labels[:, 2].tolist(),
    }, separators=(",", ":"))
    x = catalog.features
    with open(path, "w", encoding="utf-8") as f:
        f.write(f'{head[:-1]},"visual":{_floats9(x[:, :dv])},'
                f'"text":{_floats9(x[:, dv:dv + dt])}}}')


def _spec_of(s) -> CatalogSpec:
    if not (isinstance(s, dict)
            and set(s) == {f.name for f in fields(CatalogSpec)}):
        raise CatalogError(f"malformed catalog spec {s!r}")
    spec = CatalogSpec(**s)
    try:
        spec.validate()
    except ConfigurationError as e:
        raise CatalogError(f"invalid catalog spec: {e}") from e
    return replace(spec, branching=tuple(spec.branching))


def _ints(values, field: str) -> np.ndarray:
    try:
        a = np.array(values)
    except (TypeError, ValueError, OverflowError) as e:
        raise CatalogError(f"{field} is not a list of integers") from e
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise CatalogError(f"{field} is not a list of integers")
    return a.astype(np.int64)


def load_catalog(path: str) -> ItemCatalog:
    """Reads a save_catalog file; CatalogError if it does not parse or
    does not describe a valid catalog."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as e:  # malformed JSON or UTF-8
        raise CatalogError(f"{path} is not a JSON document: {e}") from e
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != CATALOG_FORMAT:
        raise CatalogError(f"{path} has catalog format {found!r}, expected "
                           f"{CATALOG_FORMAT}; rerun gen-data")
    missing = [k for k in ("spec", "train", "test", "leaf", "visual", "text")
               if k not in doc]
    if missing:
        raise CatalogError(f"{path} lacks {', '.join(missing)}")
    spec = _spec_of(doc["spec"])
    leaf, train, test = (_ints(doc[k], k) for k in ("leaf", "train", "test"))
    n = spec.n_items
    if len(leaf) != n:
        raise CatalogError(f"n_items is {n} but {len(leaf)} items are stored")
    if leaf.min() < 0 or leaf.max() >= spec.n_leaves:
        raise CatalogError(f"a leaf id lies outside [0, {spec.n_leaves})")
    if not np.array_equal(np.sort(np.concatenate([train, test])),
                          np.arange(n)):
        raise CatalogError("split is not a disjoint cover of the items")
    blocks = []
    for name, width in (("visual", spec.dv), ("text", spec.dt)):
        # array.array takes JSON numbers only: a quoted number, null or
        # nested list raises TypeError, an int past float range
        # OverflowError
        try:
            block = np.frombuffer(array.array("d", doc[name]))
        except (TypeError, OverflowError) as e:
            raise CatalogError(f"{name} is not a list of numbers") from e
        if block.shape != (n * width,):
            raise CatalogError(f"{name} holds {block.size} values, "
                               f"expected {n * width}")
        if not np.isfinite(block).all():
            raise CatalogError(f"non-finite value in {name}")
        # array.array reads JSON true/false as 1.0/0.0, so only values
        # equal to one of those can have been a boolean
        maybe = np.flatnonzero((block == 0.0) | (block == 1.0)).tolist()
        if any(type(doc[name][i]) is bool for i in maybe):
            raise CatalogError(f"{name} holds a boolean, not a number")
        blocks.append(block.reshape(n, width))
    return _assemble(spec, leaf, *blocks, train.tolist(), test.tolist())
