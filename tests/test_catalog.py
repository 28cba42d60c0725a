"""Tests for the columnar catalog, its positive sets and its file.

The per-item generator, writer and loader that the columnar code
replaced are kept here as oracles (`_oracle_*`)."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sidforge.catalog import (CATALOG_FORMAT, CatalogSpec, build_positive_sets,
                              build_tree, generate_catalog, load_catalog,
                              save_catalog)
from sidforge.cli import main
from sidforge.errors import CatalogError, ConfigurationError, InputError


def _oracle_attr(spec, path):
    b1, b2, _ = spec.branching
    c1, c2, c3 = path
    v = np.zeros(spec.attr_dim, dtype=np.float64)
    v[c1] = 1.0
    v[b1 + c2] = 1.0
    v[b1 + b1 * b2 + c3] = 1.0
    return v


def _oracle_generate(spec):
    """Item-by-item generation: (features, labels, train ids, test ids)."""
    rng = np.random.default_rng(spec.seed)
    tree = build_tree(spec.branching)
    n_leaves = spec.n_leaves
    if spec.ambiguity:
        n_l2 = spec.branching[0] * spec.branching[1]
        pv2 = rng.normal(size=(n_l2, spec.dv))
        pt2 = rng.normal(size=(n_l2, spec.dt))
        proto_v = np.stack([pv2[tree.parent_l2(c)] for c in range(n_leaves)])
        proto_t = np.stack([pt2[tree.parent_l2(c)] for c in range(n_leaves)])
    else:
        proto_v = rng.normal(size=(n_leaves, spec.dv))
        proto_t = rng.normal(size=(n_leaves, spec.dt))
    rows, labels = [], []
    for i in range(spec.n_items):
        leaf = i % n_leaves
        path = tree.path(leaf)
        visual = proto_v[leaf] + spec.noise_std * rng.normal(size=spec.dv)
        text = proto_t[leaf] + spec.noise_std * rng.normal(size=spec.dt)
        rows.append(np.concatenate([visual, text, _oracle_attr(spec, path)]))
        labels.append(path)
    perm = rng.permutation(spec.n_items)
    n_train = int(round(spec.train_fraction * spec.n_items))
    return (np.stack(rows), np.array(labels, dtype=np.int64),
            sorted(int(i) for i in perm[:n_train]),
            sorted(int(i) for i in perm[n_train:]))


def _oracle_save(catalog, path):
    """The per-item document: dense attr, labels and id on every item."""
    spec, (dv, dt) = catalog.spec, (catalog.spec.dv, catalog.spec.dt)
    doc = {
        "config_digest": "",
        "spec": {"branching": list(spec.branching), "n_items": spec.n_items,
                 "dv": dv, "dt": dt, "noise_std": spec.noise_std,
                 "ambiguity": spec.ambiguity,
                 "train_fraction": spec.train_fraction, "seed": spec.seed},
        "tree": {str(k): v for k, v in catalog.tree.names.items()},
        "split": {"train": catalog.train_ids, "test": catalog.test_ids},
        "items": [{"id": i, "labels": [int(c) for c in catalog.labels[i]],
                   "visual": [float(f"{x:.9g}") for x in row[:dv]],
                   "text": [float(f"{x:.9g}") for x in row[dv:dv + dt]],
                   "attr": [int(x) for x in row[dv + dt:]]}
                  for i, row in enumerate(catalog.features)],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))


def _oracle_load_features(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return np.stack([np.concatenate([
        np.array(d["visual"], dtype=np.float64),
        np.array(d["text"], dtype=np.float64),
        np.array(d["attr"], dtype=np.float64)]) for d in doc["items"]])


ORACLE_SPECS = [
    CatalogSpec(),
    CatalogSpec(branching=(2, 2, 2), n_items=64, dv=4, dt=4, noise_std=0.2,
                seed=3),
    CatalogSpec(branching=(3, 3, 3), n_items=270, dv=8, dt=8, seed=11),
    CatalogSpec(branching=(2, 3, 4), n_items=101, dv=5, dt=3, noise_std=0.0,
                train_fraction=0.7, seed=9),
]


@pytest.mark.parametrize("ambiguity", [True, False])
@pytest.mark.parametrize("spec", ORACLE_SPECS,
                         ids=[f"spec{i}" for i in range(len(ORACLE_SPECS))])
def test_columns_match_per_item_oracle(tmp_path, spec, ambiguity):
    spec = dataclasses.replace(spec, ambiguity=ambiguity)
    cat = generate_catalog(spec)
    features, labels, train, test = _oracle_generate(spec)
    assert np.array_equal(cat.features_matrix(), features)
    assert np.array_equal(cat.labels, labels)
    assert cat.train_ids == train and cat.test_ids == test
    # the columnar file loads to the bits the per-item file loaded to
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    _oracle_save(cat, old)
    save_catalog(cat, str(new))
    loaded = load_catalog(str(new))
    assert np.array_equal(loaded.features_matrix(), _oracle_load_features(old))
    assert np.array_equal(loaded.labels, labels)
    assert loaded.train_ids == train and loaded.test_ids == test


def test_determinism_bit_identical():
    spec = CatalogSpec(branching=(4, 4, 4), n_items=2048, seed=7)
    a = generate_catalog(spec)
    b = generate_catalog(spec)
    assert spec.n_leaves == 64
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.train_ids == b.train_ids and a.test_ids == b.test_ids
    # 2048 items over 64 leaves: 32 per leaf
    assert np.bincount(a.labels[:, 2]).tolist() == [32] * 64


def _leaf_blocks(cat):
    """leaf -> the (visual | text) rows of its items."""
    width = cat.spec.dv + cat.spec.dt
    return {leaf: cat.features[cat.labels[:, 2] == leaf, :width]
            for leaf in range(cat.spec.n_leaves)}


def test_zero_noise_identical_blocks():
    spec = CatalogSpec(branching=(2, 2, 2), n_items=32, dv=4, dt=4,
                       noise_std=0.0, ambiguity=False, seed=1)
    for rows in _leaf_blocks(generate_catalog(spec)).values():
        assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))


def test_ambiguity_shares_prototypes_attr_differs():
    # zero noise leaves each item on its prototype: with ambiguity on,
    # sibling leaves 0 and 1 (one level-2 parent) have equal visual and
    # text blocks, and their attr blocks differ in exactly 2 positions
    spec = CatalogSpec(branching=(2, 2, 2), n_items=16, dv=4, dt=4,
                       noise_std=0.0, ambiguity=True, seed=9)
    cat = generate_catalog(spec)
    blocks = _leaf_blocks(cat)
    assert np.array_equal(blocks[0][0], blocks[1][0])
    assert not np.array_equal(blocks[0][0], blocks[2][0])
    width = spec.dv + spec.dt
    a, b = (cat.features[cat.labels[:, 2] == leaf][0, width:]
            for leaf in (0, 1))
    assert int(np.sum(a != b)) == 2


def test_item_invariants(small_catalog):
    cat, spec = small_catalog, small_catalog.spec
    width = spec.dv + spec.dt
    assert cat.items == range(spec.n_items)
    assert cat.features.shape == (spec.n_items, spec.feature_dim)
    assert (cat.features[:, width:].sum(axis=1) == 3).all()
    c1, c2, c3 = cat.labels.T
    assert np.array_equal(cat.tree.parent_l2(c3), c2)
    assert np.array_equal(cat.tree.parent_l1(c2), c1)
    assert np.all(np.isfinite(cat.features))
    assert not set(cat.train_ids) & set(cat.test_ids)
    assert sorted(cat.train_ids + cat.test_ids) == list(range(spec.n_items))
    # no caller can write into the catalog
    with pytest.raises(ValueError):
        cat.features_matrix()[0, 0] = 1.0
    with pytest.raises(ValueError):
        cat.labels[0, 0] = 1
    rows = cat.features_matrix([0, 1])
    rows[:] = 0.0
    assert cat.features[0].any()


def test_config_errors():
    with pytest.raises(ConfigurationError):
        generate_catalog(CatalogSpec(branching=(4, 4, 4), n_items=10))
    with pytest.raises(ConfigurationError):
        generate_catalog(CatalogSpec(branching=(0, 4, 4), n_items=100))
    with pytest.raises(ConfigurationError):
        generate_catalog(CatalogSpec(noise_std=-1.0))


def _positives(catalog, batch):
    """[level][batch position] -> the positive batch positions."""
    return [[np.flatnonzero(row).tolist() for row in mask]
            for mask in build_positive_sets(catalog, batch)]


def test_positive_sets_full_agreement(small_catalog):
    # two items in the same leaf agree at every level
    a, b = np.flatnonzero(small_catalog.labels[:, 2] == 0)[:2].tolist()
    masks = build_positive_sets(small_catalog, [a, b])
    assert masks.shape == (3, 2, 2) and masks.dtype == bool
    assert _positives(small_catalog, [a, b]) == [[[1], [0]]] * 3


def test_positive_sets_nesting_cut(small_catalog):
    # same level-1 ancestor, different level-2: positives only at level 1
    c1, c2, _ = small_catalog.labels.T
    i = int(np.flatnonzero((c1 == 0) & (c2 == 0))[0])
    j = int(np.flatnonzero((c1 == 0) & (c2 != 0))[0])
    pos = _positives(small_catalog, [i, j])
    assert pos[0][0] == [1]
    assert pos[1][0] == []
    assert pos[2][0] == []


def test_positive_sets_match_bruteforce(medium_catalog, rng):
    batch = sorted(rng.choice(len(medium_catalog.items), size=64,
                              replace=False).tolist())
    pos = _positives(medium_catalog, batch)
    labels = [tuple(medium_catalog.labels[i]) for i in batch]
    for lvl in range(3):
        for i in range(len(batch)):
            expected = sorted(
                j for j in range(len(batch))
                if j != i and labels[j][:lvl + 1] == labels[i][:lvl + 1])
            assert pos[lvl][i] == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=2,
                max_size=16, unique=True))
def test_positive_sets_nesting_and_symmetry(small_catalog, batch):
    pos = _positives(small_catalog, batch)
    n = len(batch)
    for lvl in range(3):
        sets = [set(p) for p in pos[lvl]]
        for i in range(n):
            for j in sets[i]:
                assert i in sets[j]
            if lvl:
                assert sets[i] <= set(pos[lvl - 1][i])


def test_duplicate_batch_rejected(small_catalog):
    with pytest.raises(InputError):
        build_positive_sets(small_catalog, [1, 1, 2])
    with pytest.raises(InputError, match="99999"):
        build_positive_sets(small_catalog, [0, 99999])
    with pytest.raises(InputError, match="-1"):
        build_positive_sets(small_catalog, [0, -1])


def test_json_roundtrip(tmp_path, small_catalog):
    path = tmp_path / "cat.json"
    save_catalog(small_catalog, str(path), digest="abc")
    loaded = load_catalog(str(path))
    assert loaded.spec == small_catalog.spec
    assert loaded.tree == small_catalog.tree
    assert loaded.train_ids == small_catalog.train_ids
    assert loaded.test_ids == small_catalog.test_ids
    assert np.array_equal(loaded.labels, small_catalog.labels)
    assert np.allclose(loaded.features, small_catalog.features, atol=1e-8)
    doc = json.loads(path.read_text())
    assert doc["config_digest"] == "abc"
    assert doc["format"] == CATALOG_FORMAT
    # a loaded catalog saves to the same bytes
    again = tmp_path / "again.json"
    save_catalog(loaded, str(again), digest="abc")
    assert again.read_bytes() == path.read_bytes()


def test_json_byte_identical(tmp_path):
    spec = CatalogSpec(branching=(2, 2, 2), n_items=32, dv=4, dt=4, seed=5)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_catalog(generate_catalog(spec), str(p1))
    save_catalog(generate_catalog(spec), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_old_format_rejected(tmp_path, small_catalog):
    path = tmp_path / "old.json"
    _oracle_save(small_catalog, path)
    with pytest.raises(CatalogError, match="rerun gen-data"):
        load_catalog(str(path))


# --- corrupt catalog files --------------------------------------------------

def _edit(change):
    """A corruption that edits the parsed document in place."""
    def corrupt(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return corrupt


CORRUPTIONS = {
    "truncated": lambda text: text[:len(text) // 2],
    "not_utf8": lambda text: "\udcff" + text,
    "format_missing": _edit(lambda d: d.pop("format")),
    "format_wrong": _edit(lambda d: d.update(format=CATALOG_FORMAT + 1)),
    "not_an_object": lambda text: json.dumps([json.loads(text)]),
    "leaf_missing": _edit(lambda d: d.pop("leaf")),
    "spec_field_missing": _edit(lambda d: d["spec"].pop("dv")),
    "test_missing": _edit(lambda d: d.pop("test")),
    "spec_invalid": _edit(lambda d: d["spec"].update(branching=[2, 0, 2])),
    "leaf_outside_tree": _edit(lambda d: d["leaf"].__setitem__(5, 8)),
    "leaf_negative": _edit(lambda d: d["leaf"].__setitem__(5, -1)),
    "leaf_not_integer": _edit(lambda d: d["leaf"].__setitem__(5, 1.5)),
    "visual_short": _edit(lambda d: d["visual"].pop()),
    "text_long": _edit(lambda d: d["text"].append(0.5)),
    "text_not_numbers": _edit(lambda d: d["text"].__setitem__(0, [1, 2])),
    # not JSON numbers, or past float range: "0.5" once loaded as 0.5
    "visual_quoted": _edit(lambda d: d["visual"].__setitem__(2, "0.5")),
    "text_null": _edit(lambda d: d["text"].__setitem__(1, None)),
    "visual_nested": _edit(lambda d: d["visual"].__setitem__(0, [0.5])),
    "text_huge_int": _edit(lambda d: d["text"].__setitem__(4, 10 ** 400)),
    "visual_nan": _edit(lambda d: d["visual"].__setitem__(3, float("nan"))),
    "text_infinite": _edit(lambda d: d["text"].__setitem__(0, float("inf"))),
    "n_items_mismatch": _edit(lambda d: d["spec"].update(n_items=65)),
    "split_overlap": _edit(lambda d: d["train"].append(d["test"][0])),
    "split_incomplete": _edit(lambda d: d["test"].pop()),
    "split_outside": _edit(lambda d: d["test"].__setitem__(0, 64)),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_catalog_rejected(tmp_path, capsys, case):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"catalog": {
        "branching": [2, 2, 2], "n_items": 64, "dv": 4, "dt": 4}}))
    out = str(tmp_path / "run")
    assert main(["gen-data", "--config", str(cfg), "--out", out]) == 0
    path = tmp_path / "run" / "catalog.json"
    load_catalog(str(path))
    path.write_text(CORRUPTIONS[case](path.read_text()), encoding="utf-8",
                    errors="surrogateescape")
    with pytest.raises(CatalogError):
        load_catalog(str(path))
    capsys.readouterr()
    assert main(["train-unisid", "--config", str(cfg), "--out", out]) == 1
    assert "error [CatalogError]" in capsys.readouterr().err
