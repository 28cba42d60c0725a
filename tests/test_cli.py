"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from sidforge import cli, evalsuite, numkit, summarizer
from sidforge.catalog import build_tree, load_catalog
from sidforge.cli import (DEFAULT_CONFIG, _apply_seed_override, _merge,
                          config_digest, evaluate_scheme, load_config,
                          load_sid_table, main)
from sidforge.errors import CatalogError, ConfigurationError, SidforgeError

import golden

SMALL = {
    "catalog": {"branching": [2, 2, 2], "n_items": 64, "dv": 4, "dt": 4,
                "noise_std": 0.2, "seed": 3},
    "train": {"epochs": 2, "batch_size": 32, "d_h": 16, "d_e": 8, "d_r": 8},
    "embed_train": {"epochs": 2},
    "rq": {"K": 4, "iterations": 10},
    "rqvae": {"K": 4, "d": 8, "epochs": 2, "hidden": 8},
    "eval": {"k_list": [1, 5], "n_neg": 20, "n_users": 30, "T": 8,
             "next_sid": {"d_s": 8, "hidden": 8, "epochs": 2}},
    "sweep": {"lambdas": [0.01, 0.5]},
    "case_study": {"n_items": 5},
}


@pytest.fixture(scope="session")
def run_dir(tmp_path_factory):
    """A full small pipeline: gen-data through report."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(SMALL))
    out = str(root / "run")
    for command in ("gen-data", "train-unisid", "fit-rqkmeans",
                    "train-rqvae", "assign", "eval", "case-study", "report"):
        code = main([command, "--config", str(cfg_path), "--out", out])
        assert code == 0, command
    return out, str(cfg_path)


def test_merge_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="eval.nope"):
        _merge(DEFAULT_CONFIG, {"eval": {"nope": 1}})
    merged = _merge(DEFAULT_CONFIG, {"train": {"epochs": 2}})
    assert merged["train"]["epochs"] == 2
    assert merged["train"]["lam"] == DEFAULT_CONFIG["train"]["lam"]


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigurationError, match="JSON"):
        load_config(str(bad))
    assert load_config(None) == DEFAULT_CONFIG


@pytest.mark.parametrize("text", ["[]", "5", '"x"', "null"])
def test_config_top_level_must_be_an_object(tmp_path, capsys, text):
    # each ended in "runtime error: ... has no attribute 'items'", exit 1
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="must be a JSON object"):
        load_config(str(path))
    out = tmp_path / "run"
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "config error: config must be a JSON object\n")
    assert not out.exists()


@pytest.mark.parametrize("value", [5, "", None, ["a"]])
def test_bad_out_dir_without_out_writes_nothing(tmp_path, monkeypatch,
                                                capsys, value):
    cfg = json.loads(json.dumps(SMALL)) | {"paths": {"out_dir": value}}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert main(["gen-data", "--config", "config.json"]) == 3
    assert capsys.readouterr().err == (
        "config error: paths.out_dir must be a nonempty string\n")
    assert os.listdir(tmp_path) == ["config.json"]


def test_config_digest_canonical():
    a = {"x": 1, "y": {"a": 2, "b": 3}}
    b = {"y": {"b": 3, "a": 2}, "x": 1}
    assert config_digest(a) == config_digest(b)
    assert len(config_digest(a)) == 16
    assert config_digest(a) != config_digest({"x": 2, "y": a["y"]})


def test_seed_override_touches_every_stage():
    cfg = load_config(None)
    _apply_seed_override(cfg, 100)
    seeds = {cfg["catalog"]["seed"], cfg["train"]["seed"],
             cfg["embed_train"]["seed"], cfg["rq"]["seed"],
             cfg["rqvae"]["seed"], cfg["eval"]["seed"],
             cfg["eval"]["seq_seed"], cfg["eval"]["next_sid"]["seed"]}
    assert seeds == set(range(100, 108))


def test_exit_codes(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    assert main(["gen-data", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 3
    # eval before any data is a runtime failure, not a usage error
    assert main(["eval", "--out", str(tmp_path / "empty")]) == 1


@pytest.fixture(scope="module")
def catalog_file(tmp_path_factory):
    """catalog.json of the SMALL config."""
    root = tmp_path_factory.mktemp("catalog")
    (root / "config.json").write_text(json.dumps(SMALL))
    assert main(["gen-data", "--config", str(root / "config.json"),
                 "--out", str(root)]) == 0
    return root / "catalog.json"


def _assert_config_error(catalog_file, tmp_path, capsys, command, field,
                         value):
    """`command` with `field` set to `value` exits 3, naming the field,
    before it touches a directory that holds only a catalog."""
    cfg = json.loads(json.dumps(SMALL))
    *parents, name = field.split(".")
    section = cfg
    for key in parents:
        section = section.setdefault(key, {})
    section[name] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    # a directory with a catalog, so only the config can stop the command
    out = tmp_path / "run"
    out.mkdir()
    catalog = catalog_file.read_bytes()
    (out / "catalog.json").write_bytes(catalog)
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"config error: {field} ")
    assert os.listdir(out) == ["catalog.json"]
    assert (out / "catalog.json").read_bytes() == catalog


@pytest.mark.parametrize("field, value", [
    ("eval", 5), ("eval.next_sid", None),
    ("eval.n_users", 0), ("eval.n_users", -5), ("eval.n_users", 1),
    ("eval.k_list", []), ("eval.k_list", [0]), ("eval.n_neg", -1),
    ("eval.next_sid.batch_size", 0), ("eval.next_sid.history", 0),
    # a null seed drew from OS entropy: two runs of one config differed
    ("catalog.seed", None), ("catalog.seed", True), ("catalog.seed", -1),
    ("catalog.seed", 1.5), ("eval.seed", None), ("eval.seed", -1),
    ("eval.seq_seed", None), ("eval.seq_seed", True), ("eval.seq_seed", -1),
    ("eval.seq_seed", 1.5), ("eval.seq_seed", "17"),
    ("eval.next_sid.seed", None), ("eval.next_sid.seed", -1),
    # T must leave the catalog (64 items) an item to spare
    ("eval.T", 1), ("eval.T", 64), ("eval.T", 2.5), ("eval.T", True),
    ("eval.T", None),
    # lr -1 trained by gradient ascent and epochs -1 trained nothing
    ("eval.next_sid.lr", -1), ("eval.next_sid.lr", 0),
    ("eval.next_sid.lr", "x"), ("eval.next_sid.lr", True),
    ("eval.next_sid.lr", None), ("eval.next_sid.lr", float("inf")),
    ("eval.next_sid.epochs", -1), ("eval.next_sid.epochs", 1.5),
    ("eval.next_sid.d_s", 0), ("eval.next_sid.hidden", 0),
    ("eval.next_sid.hidden", 2.5), ("eval.next_sid.history", True)])
def test_eval_config_errors(catalog_file, tmp_path, capsys, field, value):
    _assert_config_error(catalog_file, tmp_path, capsys, "eval", field,
                         value)


@pytest.mark.parametrize("command, field, value", [
    ("fit-rqkmeans", "rq.L", 0), ("fit-rqkmeans", "rq.iterations", -1),
    ("fit-rqkmeans", "rq.iterations", 1.5), ("fit-rqkmeans", "rq.K", 2.5),
    ("fit-rqkmeans", "rq.K", "16"), ("fit-rqkmeans", "rq.seed", -1),
    ("train-rqvae", "rqvae.batch_size", 0), ("train-rqvae", "rqvae.d", 0),
    ("train-rqvae", "rqvae.L", 0), ("train-rqvae", "rqvae.K", 2.5),
    ("train-rqvae", "rqvae.hidden", 0), ("train-rqvae", "rqvae.seed", -1),
    ("train-rqvae", "rqvae.epochs", 1.5),
    # without the checks lr -1 trained by gradient ascent and exited 0,
    # and a string ended in a bare runtime error (exit 1)
    ("train-rqvae", "rqvae.lr", -1.0), ("train-rqvae", "rqvae.lr", 0),
    ("train-rqvae", "rqvae.lr", "x"), ("train-rqvae", "rqvae.lr", True),
    ("train-rqvae", "rqvae.beta", "0.25"), ("train-rqvae", "rqvae.beta", None),
    ("train-rqvae", "rqvae.beta", False),
    ("train-rqvae", "rqvae.ema_decay", "0.9"),
    ("train-rqvae", "rqvae.ema_decay", True)])
def test_rq_config_errors(catalog_file, tmp_path, capsys, command, field,
                          value):
    _assert_config_error(catalog_file, tmp_path, capsys, command, field,
                         value)


@pytest.mark.parametrize("command, field, value", [
    # true is an int to Python: it ran as K = 1 and broke report
    ("eval", "eval.k_list", [True, 5]),
    ("eval", "eval.include_hr", 1), ("eval", "eval.include_recall", None),
    # these ran silently wrong (exit 0) or ended in a bare runtime error
    ("train-unisid", "train.lr", -1), ("train-unisid", "train.lr", 0),
    ("train-unisid", "train.lr", "x"), ("train-unisid", "train.lam", -1),
    ("train-unisid", "train.lam", None), ("train-unisid", "train.tau", 0),
    ("train-unisid", "train.tau", "x"), ("train-unisid", "train.epochs", 1.5),
    ("train-unisid", "train.epochs", None),
    ("train-unisid", "train.batch_size", 1),
    ("train-unisid", "train.batch_size", "x"),
    ("train-unisid", "train.seed", -1), ("train-unisid", "train.seed", None),
    ("train-unisid", "train.L", 0), ("train-unisid", "train.K", 1.5),
    ("train-unisid", "train.K", 0), ("train-unisid", "train.d_h", 0),
    ("train-unisid", "train.d_e", 0), ("train-unisid", "train.d_r", 0),
    ("train-unisid", "train.d_r", None),
    ("train-unisid", "train.decoder_warmup_epochs", -1),
    ("train-unisid", "train.decoder_warmup_epochs", 1.5),
    ("train-unisid", "train.decoder_warmup_epochs", "x"),
    ("fit-rqkmeans", "embed_train.epochs", -1),
    ("fit-rqkmeans", "embed_train.epochs", 1.5),
    ("fit-rqkmeans", "embed_train.seed", -1),
    ("fit-rqkmeans", "embed_train.seed", None),
    ("gen-data", "catalog.n_items", "x"), ("gen-data", "catalog.n_items", 4),
    ("gen-data", "catalog.dv", -1), ("gen-data", "catalog.dt", 1.5),
    ("gen-data", "catalog.noise_std", None),
    ("gen-data", "catalog.train_fraction", 0),
    ("gen-data", "catalog.train_fraction", 1.5),
    ("gen-data", "catalog.train_fraction", "x"),
    ("gen-data", "catalog.branching", [2, 2]),
    ("gen-data", "catalog.branching", [2, 0, 2]),
    ("gen-data", "catalog.branching", [2, 2.0, 2]),
    ("gen-data", "catalog.branching", None),
    ("case-study", "case_study.n_items", -1),
    ("case-study", "case_study.n_items", None),
    ("case-study", "case_study.n_items", 0),
    ("case-study", "case_study.n_items", 1.5),
    # each sub-run of the sweep starts work: check every lambda first
    ("sweep-lambda", "sweep.lambdas", []),
    ("sweep-lambda", "sweep.lambdas", ["x"]),
    ("sweep-lambda", "sweep.lambdas", [-1]),
    ("sweep-lambda", "sweep.lambdas", [0.1, None]),
    ("sweep-lambda", "sweep.lambdas", 0.1),
    # a boolean takes true or false only
    ("gen-data", "catalog.ambiguity", "x"),
    ("gen-data", "catalog.ambiguity", None),
    ("train-unisid", "train.use_sid", -1),
    ("train-unisid", "train.use_sid", "x"),
    ("train-unisid", "train.use_emb", 0),
    ("train-unisid", "train.decoder_frozen_after_warmup", 1.5),
    ("sweep-lambda", "sweep.include_hr", "x"),
    # rules that span fields: an L other than the taxonomy depth stopped
    # train-unisid in its first batch, and a catalog without test items
    # passed gen-data through assign and then stopped eval (exit 1 both)
    ("train-unisid", "train.L", 1), ("train-unisid", "train.L", 2),
    ("train-unisid", "train.L", 4), ("eval", "train.L", 2),
    ("gen-data", "catalog.train_fraction", 1.0),
    ("gen-data", "catalog.train_fraction", 0.995),
    ("eval", "catalog.train_fraction", 1.0),
    # the 64-item catalog has 63 negatives for each item; eval drew the
    # users and trained before recall found too few
    ("eval", "eval.n_neg", 64), ("eval", "eval.n_neg", 1000),
    ("sweep-lambda", "eval.n_neg", 64), ("ablate-joint", "eval.n_neg", 99),
    # one training item trained nothing and every command exited 0; a K
    # above the 64 items and a summary vocabulary above 128 tokens (here
    # 21 + 64 + 64 and 21 + 60 + 60) passed gen-data and stopped a later
    # command
    ("gen-data", "catalog.train_fraction", 0.01),
    ("train-unisid", "catalog.train_fraction", 0.02),
    ("gen-data", "rq.K", 65), ("fit-rqkmeans", "rq.K", 100),
    ("gen-data", "rqvae.K", 65), ("train-rqvae", "rqvae.K", 100),
    ("gen-data", "catalog.branching", [64, 1, 1]),
    ("train-unisid", "catalog.branching", [60, 1, 1]),
    # without --out these ended in a bare runtime error (exit 1)
    ("gen-data", "paths.out_dir", 5), ("gen-data", "paths.out_dir", ""),
    ("train-unisid", "paths.out_dir", None),
    ("gen-data", "paths.out_dir", ["a"]),
    # a next-SID model past cli.MAX_NEXT_SID_SIZE: at rq.L = 5000 eval
    # ran out of memory
    ("gen-data", "rq.L", 5000), ("fit-rqkmeans", "rq.L", 5000),
    ("gen-data", "rqvae.L", 5000), ("train-rqvae", "rqvae.L", 5000),
    ("eval", "rq.L", 5000)])
def test_config_errors(catalog_file, tmp_path, capsys, command, field,
                       value):
    _assert_config_error(catalog_file, tmp_path, capsys, command, field,
                         value)


@pytest.mark.parametrize("command, edits", [
    # train.L is free while the SID loss is off
    ("train-unisid", {"train": {"L": 2, "use_sid": False}}),
    ("gen-data", {"catalog": {"train_fraction": 0.99}}),
    # commands that never evaluate keep any n_neg
    ("gen-data", {"eval": {"n_neg": 99}}),
    ("train-unisid", {"eval": {"n_neg": 99}}),
    # the smallest train split, a K for every item, and a summary
    # vocabulary of 127 tokens (21 + 53 + 53)
    ("train-unisid", {"catalog": {"train_fraction": 0.03}}),
    ("fit-rqkmeans", {"rq": {"K": 64}}),
    ("train-rqvae", {"rqvae": {"K": 64}}),
    ("train-unisid", {"catalog": {"branching": [53, 1, 1]}})])
def test_cross_field_rules_accept(tmp_path, command, edits):
    cfg = json.loads(json.dumps(SMALL))
    for section, fields in edits.items():
        cfg[section].update(fields)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "run")
    if command != "gen-data":
        assert main(["gen-data", "--config", str(cfg_path),
                     "--out", out]) == 0
    assert main([command, "--config", str(cfg_path), "--out", out]) == 0


@pytest.mark.parametrize("section", ["train", "rq", "rqvae"])
def test_next_sid_size_rule_boundary(section):
    # each scheme's L and K, with eval.next_sid's widths, give the size
    # of the next-SID model eval trains; check_config takes the largest
    # L within the bound and rejects the next
    cfg = _merge(DEFAULT_CONFIG, SMALL)
    cfg["train"]["use_sid"] = False   # so train.L is free

    def size(L):
        return evalsuite.next_sid_size(dataclasses.replace(
            evalsuite.NextSidConfig(**cfg["eval"]["next_sid"]), L=L,
            K=cfg[section]["K"]))

    top = max(L for L in range(1, 2000) if size(L) <= cli.MAX_NEXT_SID_SIZE)
    cfg[section]["L"] = top
    cli.check_config(cfg)
    cfg[section]["L"] = top + 1
    with pytest.raises(ConfigurationError,
                       match=rf"^{section}\.L and {section}\.K must give "
                             rf"a next-SID model of at most 10,000,000 "
                             rf"parameters, not {size(top + 1):,}$"):
        cli.check_config(cfg)


def test_eval_without_recall_keeps_any_n_neg(run_dir, tmp_path):
    out, _ = run_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    cfg = json.loads(json.dumps(SMALL))
    cfg["eval"].update(n_neg=64, include_recall=False, include_hr=False)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["eval", "--config", str(cfg_path), "--out", str(copy)]) == 0
    doc = json.load(open(copy / "eval_unisid.json"))
    assert doc["recall"] is None


@pytest.mark.parametrize("branching, n_items", [
    ((2, 2, 2), 64), ((4, 4, 4), 64), ((8, 8, 8), 512), ((53, 1, 1), 64),
    ((54, 1, 1), 64), ((4, 4, 6), 96), ((4, 4, 7), 112)])
def test_vocab_rule_matches_build_vocab(branching, n_items):
    # check_config rejects a branching exactly when training would
    cfg = load_config(None)
    cfg["catalog"].update(branching=list(branching), n_items=n_items)
    try:
        vocab = summarizer.build_vocab(build_tree(branching))
    except ConfigurationError:
        with pytest.raises(ConfigurationError,
                           match=r"^catalog\.branching must "):
            cli.check_config(cfg)
    else:
        assert summarizer.vocab_size(branching) == len(vocab)
        cli.check_config(cfg)


def test_missing_checkpoint_is_a_typed_error(run_dir, tmp_path, capsys):
    out, cfg_path = run_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    os.remove(copy / "unisid.ckpt")
    for command in ("case-study", "eval"):
        assert main([command, "--config", cfg_path, "--out", str(copy)]) == 1
        assert capsys.readouterr().err == (
            "error [SidforgeError]: checkpoint not found at "
            f"{copy / 'unisid.ckpt'}; run train-unisid first\n")
    with pytest.raises(SidforgeError, match="run fit-rqkmeans first"):
        cli._load_bundle(str(tmp_path), "rqkmeans")


@pytest.mark.parametrize("block, index, value", [("visual", 3, True),
                                                 ("text", 0, False)])
def test_boolean_feature_value_is_a_catalog_error(run_dir, tmp_path, capsys,
                                                  block, index, value):
    # a JSON true/false among the feature numbers once loaded as 1.0/0.0
    out, cfg_path = run_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    path = copy / "catalog.json"
    doc = json.loads(path.read_text())
    doc[block][index] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError, match=f"{block} holds a boolean"):
        load_catalog(str(path))
    capsys.readouterr()
    assert main(["eval", "--config", cfg_path, "--out", str(copy)]) == 1
    assert capsys.readouterr().err == (
        f"error [CatalogError]: {block} holds a boolean, not a number\n")


def _sections(section, name):
    """(name, section) for `section` and each section nested in it."""
    yield name, section
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        if dataclasses.is_dataclass(value):
            yield from _sections(value, f"{name}.{f.name}")


def test_every_config_field_declares_a_rule():
    config = cli.check_config(load_config(None))
    sections = [pair for name, value in config._asdict().items()
                if dataclasses.is_dataclass(value)
                for pair in _sections(value, name)]
    assert [name for name, _ in sections] == [
        "catalog", "train", "embed_train", "rq", "rqvae", "eval",
        "eval.next_sid", "sweep", "case_study"]
    for name, section in sections:
        defaults = DEFAULT_CONFIG
        for key in name.split("."):
            defaults = defaults[key]
        # the next-SID depth and codebook size come from each SID table
        extra = {"L", "K"} if name == "eval.next_sid" else set()
        names = {f.name for f in dataclasses.fields(section)}
        assert names == set(defaults) | extra, name
        numkit.check(section, name)
        for f in dataclasses.fields(section):
            kind, _, opts = f.metadata["rule"]
            bad = ["x"] + [None] * (not opts.get("null"))
            if kind == "bool":
                bad += [0, 1, -1, 1.5, "true", [True]]
            for value in bad:
                with pytest.raises(ConfigurationError,
                                   match=rf"^{name}\.{f.name} must be "):
                    numkit.check(
                        dataclasses.replace(section, **{f.name: value}), name)


def _leaf_fields(section, path=""):
    """The dotted names of the plain values in a nested config dict."""
    for key, value in section.items():
        where = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _leaf_fields(value, where)
        else:
            yield where


def test_readme_field_table_names_every_field():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    named = set()
    with open(readme, encoding="utf-8") as f:
        for line in f:
            if line.startswith("| `"):  # a table row; its first cell
                named |= {name for name in re.findall(
                    r"`([^`]+)`", line.split("|")[1]) if "." in name}
    # paths.out_dir is described in the text above the table
    assert named == set(_leaf_fields(DEFAULT_CONFIG)) - {"paths.out_dir"}


def test_verbose_prints_traceback(tmp_path, monkeypatch, capsys):
    def broken(cfg, out):
        raise ValueError("boom")

    monkeypatch.setitem(cli.COMMANDS, "report", broken)
    args = ["report", "--out", str(tmp_path)]
    assert main(args) == 1
    assert capsys.readouterr().err == "runtime error: boom\n"
    assert main(args + ["--verbose"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "in broken" in err
    assert err.endswith("ValueError: boom\nruntime error: boom\n")


def test_pipeline_artifacts(run_dir):
    out, _ = run_dir
    expected = ["catalog.json", "unisid.ckpt", "rqkmeans.ckpt", "rqvae.ckpt",
                "loss_unisid.csv", "loss_rqkmeans_embed.csv", "loss_rqvae.csv",
                "sids_unisid.json", "sids_rqkmeans.json", "sids_rqvae.json",
                "eval_unisid.json", "eval_rqkmeans.json", "eval_rqvae.json",
                "case_study.txt", "report.csv"]
    for name in expected:
        assert os.path.exists(os.path.join(out, name)), name


def test_every_artifact_embeds_the_digest(run_dir):
    out, cfg_path = run_dir
    digest = config_digest(load_config(cfg_path))
    catalog_doc = json.load(open(os.path.join(out, "catalog.json")))
    assert catalog_doc["config_digest"] == digest
    for scheme in ("unisid", "rqkmeans", "rqvae"):
        sid_doc = json.load(open(os.path.join(out, f"sids_{scheme}.json")))
        assert sid_doc["config_digest"] == digest
        eval_doc = json.load(open(os.path.join(out, f"eval_{scheme}.json")))
        assert eval_doc["config_digest"] == digest
    first_line = open(os.path.join(out, "case_study.txt")).readline()
    assert digest in first_line


def test_sid_tables_are_valid(run_dir):
    out, cfg_path = run_dir
    cfg = load_config(cfg_path)
    for scheme in ("unisid", "rqkmeans", "rqvae"):
        doc = json.load(open(os.path.join(out, f"sids_{scheme}.json")))
        table = load_sid_table(os.path.join(out, f"sids_{scheme}.json"))
        assert len(table) == cfg["catalog"]["n_items"]
        K = doc["K"]
        assert all(len(t) == doc["L"] and all(0 <= v < K for v in t)
                   for t in table.values())


def _sid_edit(change):
    """A corruption of sids_unisid.json that edits the parsed document."""
    def corrupt(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return corrupt


def _set_token(item, value, pos=0):
    return _sid_edit(lambda d: d["sids"][item].__setitem__(pos, value))


IDS = "exactly the item ids 0.."
SID_CORRUPTIONS = {
    # (corruption, words the error must contain)
    "token_negative": (_set_token("3", -3), "item 3"),
    "token_is_K": (_set_token("3", 16), "item 3"),
    "token_far_out": (_set_token("3", 99), "item 3"),
    "token_float": (_set_token("3", 4.5), "item 3"),
    "token_bool": (_set_token("3", True), "item 3"),
    "sid_short": (_sid_edit(lambda d: d["sids"]["3"].pop()), "item 3"),
    "sid_not_list": (_sid_edit(lambda d: d["sids"].update({"3": 5})),
                     "item 3"),
    "K_below_tokens": (_sid_edit(lambda d: d.update(K=1)), "[0, 1)"),
    "K_zero": (_sid_edit(lambda d: d.update(K=0)), "K must"),
    "L_missing": (_sid_edit(lambda d: d.pop("L")), "L must"),
    "L_float": (_sid_edit(lambda d: d.update(L=3.0)), "L must"),
    "item_missing": (_sid_edit(lambda d: d["sids"].pop("7")), IDS),
    "item_extra": (_sid_edit(lambda d: d["sids"].update({"64": [0, 0, 0]})),
                   IDS),
    "item_renamed": (_sid_edit(lambda d: d["sids"].update(
        {"07": d["sids"].pop("7")})), IDS),
    "sids_empty": (_sid_edit(lambda d: d.update(sids={})), "not be empty"),
    "sids_not_object": (_sid_edit(lambda d: d.update(sids=[[0, 0, 0]])),
                        "sids must be an object"),
    "not_an_object": (lambda text: json.dumps([json.loads(text)]),
                      "JSON object"),
    "truncated": (lambda text: text[:len(text) // 2], "not a JSON document"),
}


@pytest.mark.parametrize("case", sorted(SID_CORRUPTIONS))
def test_corrupt_sid_file_rejected(run_dir, tmp_path, capsys, case):
    src, cfg_path = run_dir
    out = str(tmp_path / "run")
    shutil.copytree(src, out)
    path = os.path.join(out, "sids_unisid.json")
    corrupt, words = SID_CORRUPTIONS[case]
    with open(path, encoding="utf-8") as f:
        text = corrupt(f.read())
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    if case != "item_extra":  # only the catalog knows n is 64
        with pytest.raises(SidforgeError, match=re.escape(words)):
            load_sid_table(path)
    capsys.readouterr()
    assert main(["eval", "--config", cfg_path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [InputError]: {path}: "), err
    assert words in err


def test_eval_rerun_is_byte_identical(run_dir):
    out, cfg_path = run_dir
    path = os.path.join(out, "eval_unisid.json")
    before = open(path, "rb").read()
    assert main(["eval", "--config", cfg_path, "--out", out]) == 0
    assert open(path, "rb").read() == before


def test_eval_draws_user_sequences_once(run_dir, monkeypatch):
    out, cfg_path = run_dir
    calls = []
    draw = evalsuite.gen_user_sequences

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(evalsuite, "gen_user_sequences", counted)
    before = open(os.path.join(out, "eval_rqvae.json"), "rb").read()
    assert main(["eval", "--config", cfg_path, "--out", out]) == 0
    assert len(calls) == 1  # for all three schemes
    assert open(os.path.join(out, "eval_rqvae.json"), "rb").read() == before


def test_shared_draw_matches_a_draw_per_scheme(run_dir):
    # eval scores every scheme on one draw of user sequences; a fresh
    # draw per scheme gives the same reports
    out, cfg_path = run_dir
    cfg = cli.check_config(load_config(cfg_path))
    catalog = load_catalog(os.path.join(out, "catalog.json"))
    for scheme in ("unisid", "rqkmeans", "rqvae"):
        own = evaluate_scheme(cfg, out, scheme, catalog,
                              seqs=cli._user_sequences(cfg, catalog))
        shared = evalsuite.load_report(
            os.path.join(out, f"eval_{scheme}.json"))
        assert own.hr and own.to_dict() == shared.to_dict()


def test_case_study_format(run_dir):
    out, _ = run_dir
    lines = open(os.path.join(out, "case_study.txt")).read().splitlines()
    assert lines[0].startswith("# config_digest:")
    body = lines[1:]
    assert len(body) == SMALL["case_study"]["n_items"]
    for line in body:
        item_id, text = line.split("\t")
        assert item_id.isdigit() and text


def test_report_table(run_dir):
    out, _ = run_dir
    lines = open(os.path.join(out, "report.csv")).read().splitlines()
    assert lines[0].split(",")[0] == "scheme"
    schemes = [l.split(",")[0] for l in lines[1:]]
    assert schemes == ["unisid", "rqkmeans", "rqvae"]


def test_sweep_lambda(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL))
    out = str(tmp_path / "run")
    assert main(["gen-data", "--config", str(cfg_path), "--out", out]) == 0
    assert main(["sweep-lambda", "--config", str(cfg_path),
                 "--out", out]) == 0
    for lam in SMALL["sweep"]["lambdas"]:
        sub = os.path.join(out, "sweep", f"lambda_{lam:g}")
        doc = json.load(open(os.path.join(sub, "eval_unisid.json")))
        assert doc["extra"]["lam"] == lam
        assert doc["v_measure"] is not None


def test_ablate_joint(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL))
    out = str(tmp_path / "run")
    assert main(["ablate-joint", "--config", str(cfg_path),
                 "--out", out]) == 0
    for name in ("joint", "sid_only", "emb_only"):
        doc = json.load(open(os.path.join(out, "ablate", name,
                                          "eval_unisid.json")))
        assert doc["extra"]["variant"] == name


def test_eval_with_shallower_baselines(tmp_path):
    # each scheme's next-SID model takes its depth from that scheme's
    # SID table, not from train.L
    cfg = json.loads(json.dumps(SMALL))
    cfg["rq"]["L"] = 2
    cfg["rqvae"]["L"] = 2
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "run")
    for command in ("gen-data", "train-unisid", "fit-rqkmeans",
                    "train-rqvae", "assign", "eval", "report"):
        assert main([command, "--config", str(cfg_path),
                     "--out", out]) == 0, command
    for scheme, L in (("unisid", 3), ("rqkmeans", 2), ("rqvae", 2)):
        doc = json.load(open(os.path.join(out, f"sids_{scheme}.json")))
        assert doc["L"] == L
        eval_doc = json.load(open(os.path.join(out, f"eval_{scheme}.json")))
        assert eval_doc["hr"], scheme
        # V-measure at levels 1..L of the scheme, not beyond its depth
        assert len(eval_doc["v_measure"]) == L, scheme
    # report.csv: V columns up to the deepest scheme, a shallower scheme's
    # missing level left empty so its later columns stay aligned
    with open(os.path.join(out, "report.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0])[:4] == ["scheme", "v_measure_l1", "v_measure_l2",
                                 "v_measure_l3"]
    for row in rows:
        eval_doc = json.load(open(os.path.join(
            out, f"eval_{row['scheme']}.json")))
        deep = row["scheme"] == "unisid"
        assert (row["v_measure_l3"] != "") == deep, row
        assert float(row["hr@1"]) == pytest.approx(eval_doc["hr"]["1"],
                                                   abs=5e-5), row
        assert row["collision"] != "", row


# --- golden artifacts --------------------------------------------------------

def test_pipeline_matches_golden_manifest(run_dir):
    assert golden.mismatch("small", golden.digests(run_dir[0])) is None


@pytest.mark.parametrize("name", ["small-sweep", "small-ablate", "wide"])
def test_run_matches_golden_manifest(tmp_path, name):
    got = golden.run(*golden.runs(SMALL)[name], str(tmp_path))
    assert golden.mismatch(name, got) is None


@pytest.mark.parametrize("name", ["small", "wide"])
def test_golden_manifest_at_two_blas_threads(tmp_path, name):
    # the thread count is read when NumPy loads, so it takes a new process
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, golden.__file__, "--run", name, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    assert golden.mismatch(name, got) is None


def test_golden_mismatch_names_files_and_stack(monkeypatch):
    with open(golden.MANIFEST) as f:
        want = json.load(f)["runs"]["small"]
    got = dict(want, **{"report.csv": "0" * 64, "extra.txt": "0" * 64})
    del got["catalog.json"]
    monkeypatch.setattr(golden, "stack", lambda: {"numpy": "0.0"})
    message = golden.mismatch("small", got)
    assert "moved: report.csv" in message
    assert "missing: catalog.json" in message
    assert "new: extra.txt" in message
    assert "made with numpy 2" in message and "running 0.0" in message
