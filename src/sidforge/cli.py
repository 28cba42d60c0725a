"""Command-line entry points and experiment orchestration.

Commands: gen-data, train-unisid, fit-rqkmeans, train-rqvae, assign,
eval, sweep-lambda, ablate-joint, case-study, report.  Exit codes:
0 success, 1 runtime failure, 2 usage error, 3 config validation error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import traceback
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from . import evalsuite, numkit, objectives, rq, summarizer, unisid
from .catalog import (LEVELS, CatalogSpec, ItemCatalog, generate_catalog,
                      load_catalog, save_catalog)
from .checkpoint import (RqKmeansBundle, RqVaeBundle, UniSidBundle,
                         load_checkpoint, save_checkpoint)
from .errors import ConfigurationError, InputError, SidforgeError
from .evalsuite import EvalReport, NextSidConfig
from .objectives import TrainConfig


def _rqvae_embed(bundle, x):
    return numkit.mlp_apply(bundle.model.encoder, x)[0]


# scheme -> (SidTable of a catalog, embeddings of a feature matrix),
# each from the scheme's loaded checkpoint bundle
SCHEME_TABLE = {
    "unisid": (lambda b, cat: unisid.assign_catalog(b.model, cat)[0],
               lambda b, x: unisid.embed_batch(b.model, x)),
    "rqkmeans": (lambda b, cat: unisid.SidTable(rq.rq_assign_batch(
                     b.codebook, unisid.embed_batch(b.embed_model,
                                                    cat.features_matrix())),
                     b.codebook.K),
                 lambda b, x: unisid.embed_batch(b.embed_model, x)),
    "rqvae": (lambda b, cat: unisid.SidTable(rq.rq_assign_batch(
                  b.model.codebook, _rqvae_embed(b, cat.features_matrix())),
                  b.model.codebook.K),
              _rqvae_embed),
}
SCHEMES = tuple(SCHEME_TABLE)

DEFAULT_CONFIG = {
    "catalog": {"branching": [4, 4, 4], "n_items": 2048, "dv": 16, "dt": 16,
                "noise_std": 0.3, "ambiguity": True, "train_fraction": 0.9,
                "seed": 7},
    "train": {"lam": 0.1, "tau": 0.07, "epochs": 50, "batch_size": 64,
              "seed": 1, "lr": 1e-3, "L": 3, "K": 16, "d_h": 64, "d_e": 32,
              "d_r": 32, "use_sid": True, "use_emb": True,
              "decoder_frozen_after_warmup": True,
              "decoder_warmup_epochs": None},
    "embed_train": {"epochs": 15, "seed": 3},
    "rq": {"L": 3, "K": 16, "seed": 11, "iterations": 50},
    "rqvae": {"L": 3, "K": 16, "d": 32, "beta": 0.25, "epochs": 15,
              "batch_size": 64, "lr": 1e-3, "seed": 13, "ema_decay": 0.99,
              "hidden": 64},
    "eval": {"k_list": [1, 5, 10, 20], "n_neg": 99, "n_users": 1000,
             "T": 20, "seq_seed": 17, "include_hr": True,
             "include_recall": True, "seed": 23,
             "next_sid": {"d_s": 32, "hidden": 32, "history": 5,
                          "epochs": 8, "batch_size": 64, "lr": 1e-3,
                          "seed": 19}},
    "sweep": {"lambdas": [0.01, 0.1, 0.5, 1.0], "include_hr": False},
    "case_study": {"n_items": 20},
    "paths": {"out_dir": "runs/default"},
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for k, v in override.items():
        where = f"{path}.{k}" if path else k
        if k not in base:
            raise ConfigurationError(f"unknown config field: {where}")
        if isinstance(base[k], dict):
            if not isinstance(v, dict):
                raise ConfigurationError(f"{where} must be an object")
            out[k] = _merge(base[k], v, where)
        else:
            out[k] = v
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    try:
        with open(path, encoding="utf-8") as f:
            user = json.load(f)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config is not valid JSON: {e}")
    if not isinstance(user, dict):
        raise ConfigurationError("config must be a JSON object")
    return _merge(DEFAULT_CONFIG, user)


def config_digest(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# sections that only the CLI reads, with DEFAULT_CONFIG's defaults;
# embed_train is the embedding-only run that fit-rqkmeans clusters
@dataclass(frozen=True)
class EmbedTrain:
    epochs: int = numkit.rule("int", ">= 0")
    seed: int = numkit.rule("int", ">= 0")


@dataclass(frozen=True)
class Rq:
    L: int = numkit.rule("int", ">= 1")
    K: int = numkit.rule("int", ">= 1")
    seed: int = numkit.rule("int", ">= 0")
    iterations: int = numkit.rule("int", ">= 0")


@dataclass(frozen=True)
class Eval:
    k_list: list[int] = numkit.rule("int", ">= 1", items="+")
    n_neg: int = numkit.rule("int", ">= 0")
    # one user to train the next-SID model on and one to test
    n_users: int = numkit.rule("int", ">= 2")
    T: int = numkit.rule("int", ">= 2")  # and below catalog.n_items
    seq_seed: int = numkit.rule("int", ">= 0")
    include_hr: bool = numkit.rule("bool")
    include_recall: bool = numkit.rule("bool")
    seed: int = numkit.rule("int", ">= 0")
    next_sid: NextSidConfig = numkit.rule(NextSidConfig)


@dataclass(frozen=True)
class Sweep:
    lambdas: list[float] = numkit.rule("number", ">= 0", items="+")
    include_hr: bool = numkit.rule("bool")


@dataclass(frozen=True)
class CaseStudy:
    n_items: int = numkit.rule("int", ">= 1")


class Config(NamedTuple):
    """A resolved config: its dict's digest and its checked sections."""

    digest: str
    catalog: CatalogSpec
    train: TrainConfig
    embed_train: EmbedTrain
    rq: Rq
    rqvae: rq.RqVaeConfig
    eval: Eval
    sweep: Sweep
    case_study: CaseStudy


# eval trains one next-SID model per scheme, which takes 64-68 bytes
# of memory per parameter at its peak; its size grows as hidden*K*L^2/2
MAX_NEXT_SID_SIZE = 10_000_000


def check_config(cfg: dict) -> Config:
    """Builds and checks every section of the resolved config `cfg`."""
    e = cfg["eval"]
    sections = {name: cls(**cfg[name]) for name, cls in (
        ("catalog", CatalogSpec), ("train", TrainConfig),
        ("embed_train", EmbedTrain), ("rq", Rq), ("rqvae", rq.RqVaeConfig),
        ("sweep", Sweep), ("case_study", CaseStudy))}
    sections["eval"] = Eval(**e | {"next_sid": NextSidConfig(**e["next_sid"])})
    for name, section in sections.items():
        numkit.check(section, name)
    out_dir = cfg["paths"]["out_dir"]
    if not (isinstance(out_dir, str) and out_dir):
        raise ConfigurationError("paths.out_dir must be a nonempty string")
    # the rules that span fields
    spec, train = sections["catalog"], sections["train"]
    spec.validate()
    if not 2 <= round(spec.train_fraction * spec.n_items) < spec.n_items:
        raise ConfigurationError(
            "catalog.train_fraction must leave a batch of 2 training items "
            "and a test item: 2 <= round(train_fraction * n_items) < n_items")
    vocab = summarizer.vocab_size(spec.branching)
    if vocab > summarizer.MAX_VOCAB:
        raise ConfigurationError(
            "catalog.branching must give a summary vocabulary of at most "
            f"{summarizer.MAX_VOCAB} tokens, 21 + b1 + b1 * b2 * b3, "
            f"not {vocab}")
    for name in ("rq", "rqvae"):
        if sections[name].K > spec.n_items:
            raise ConfigurationError(
                f"{name}.K must be at most catalog.n_items, the points "
                "each level clusters")
    if sections["eval"].T >= spec.n_items:
        raise ConfigurationError("eval.T must be below catalog.n_items")
    for name in ("train", "rq", "rqvae"):
        size = evalsuite.next_sid_size(replace(
            sections["eval"].next_sid, L=sections[name].L, K=sections[name].K))
        if size > MAX_NEXT_SID_SIZE:
            raise ConfigurationError(
                f"{name}.L and {name}.K must give a next-SID model of at "
                f"most {MAX_NEXT_SID_SIZE:,} parameters, not {size:,}")
    if train.use_sid and train.L != LEVELS:
        raise ConfigurationError(
            f"train.L must be {LEVELS}, the taxonomy depth, while "
            "train.use_sid is on")
    return Config(digest=config_digest(cfg), **{
        **sections, "catalog": replace(spec, branching=tuple(spec.branching))})


def _check_recall_pool(cfg: Config) -> None:
    """Recall ranks each test item against n_neg other items; the
    commands that evaluate check that the catalog has them first."""
    if cfg.eval.include_recall and cfg.eval.n_neg >= cfg.catalog.n_items:
        raise ConfigurationError(
            "eval.n_neg must be below catalog.n_items while "
            "eval.include_recall is on")


# the command that writes each scheme's checkpoint
TRAINERS = {"unisid": "train-unisid", "rqkmeans": "fit-rqkmeans",
            "rqvae": "train-rqvae"}


def _load_bundle(out: str, scheme: str):
    """The scheme's checkpoint bundle in `out`."""
    path = os.path.join(out, f"{scheme}.ckpt")
    if not os.path.exists(path):
        raise SidforgeError(f"checkpoint not found at {path}; "
                            f"run {TRAINERS[scheme]} first")
    return load_checkpoint(path)


def _catalog_path(out: str) -> str:
    return os.path.join(out, "catalog.json")


def _load_catalog(out: str) -> ItemCatalog:
    path = _catalog_path(out)
    if not os.path.exists(path):
        raise SidforgeError(f"catalog not found at {path}; run gen-data first")
    return load_catalog(path)


def cmd_gen_data(cfg: Config, out: str) -> ItemCatalog:
    catalog = generate_catalog(cfg.catalog)
    os.makedirs(out, exist_ok=True)
    save_catalog(catalog, _catalog_path(out), digest=cfg.digest)
    print(f"wrote {_catalog_path(out)} "
          f"({len(catalog.items)} items, {catalog.spec.n_leaves} leaves)")
    return catalog


def cmd_train_unisid(cfg: Config, out: str,
                     catalog: ItemCatalog | None = None,
                     train: TrainConfig | None = None) -> None:
    if catalog is None:
        catalog = _load_catalog(out)
    model, pipeline, report = objectives.train_unisid(catalog,
                                                      train or cfg.train)
    bundle = UniSidBundle(model=model, pipeline=pipeline, digest=cfg.digest)
    save_checkpoint(bundle, os.path.join(out, "unisid.ckpt"))
    report.save_csv(os.path.join(out, "loss_unisid.csv"))
    print(f"wrote unisid.ckpt ({len(report.steps)} steps)")


def cmd_fit_rqkmeans(cfg: Config, out: str) -> None:
    catalog = _load_catalog(out)
    # stage 1: embeddings from an embedding-only training run
    tc = replace(cfg.train, use_sid=False, lam=0.0, **asdict(cfg.embed_train))
    embed_model, _, report = objectives.train_unisid(catalog, tc)
    emb = unisid.embed_batch(embed_model, catalog.features_matrix())
    codebook = rq.rq_kmeans_fit(emb, **asdict(cfg.rq))
    bundle = RqKmeansBundle(embed_model=embed_model, codebook=codebook,
                            digest=cfg.digest)
    save_checkpoint(bundle, os.path.join(out, "rqkmeans.ckpt"))
    report.save_csv(os.path.join(out, "loss_rqkmeans_embed.csv"))
    print("wrote rqkmeans.ckpt")


def cmd_train_rqvae(cfg: Config, out: str) -> None:
    catalog = _load_catalog(out)
    model, losses = rq.rq_vae_fit(catalog.features_matrix(), cfg.rqvae)
    save_checkpoint(RqVaeBundle(model=model, digest=cfg.digest),
                    os.path.join(out, "rqvae.ckpt"))
    with open(os.path.join(out, "loss_rqvae.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "loss"])
        for i, v in enumerate(losses):
            w.writerow([i, f"{v:.9g}"])
    print("wrote rqvae.ckpt")


def _present_schemes(out: str, pattern: str) -> list[str]:
    """The schemes whose file `pattern.format(scheme)` exists in `out`."""
    return [s for s in SCHEMES
            if os.path.exists(os.path.join(out, pattern.format(s)))]


def cmd_assign(cfg: Config, out: str, schemes=None,
               catalog: ItemCatalog | None = None) -> None:
    if catalog is None:
        catalog = _load_catalog(out)
    schemes = schemes or _present_schemes(out, "{}.ckpt")
    if not schemes:
        raise SidforgeError("no checkpoints found; train a model first")
    for scheme in schemes:
        bundle = _load_bundle(out, scheme)
        table = SCHEME_TABLE[scheme][0](bundle, catalog)
        doc = {"L": table.L, "K": table.K, "config_digest": cfg.digest,
               "sids": {str(i): t for i, t in
                        enumerate(table.tokens.tolist())}}
        path = os.path.join(out, f"sids_{scheme}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(doc, separators=(",", ":"), sort_keys=True))
        print(f"wrote {path}")


def _load_sid_doc(path: str, n_items: int | None = None) -> unisid.SidTable:
    """The SidTable of a sids_*.json file: an object with integers `L`
    and `K` >= 1 and a nonempty `sids` object whose ids are exactly "0" ..
    "n-1" (n is `n_items` when given, else the number of ids), each
    mapped to a list of L integers in [0, K), checked one by one, as an
    int64 array cannot tell a JSON boolean from 0 or 1.  Any other file
    raises InputError naming the file and the broken rule."""
    def broken(rule: str) -> InputError:
        return InputError(f"{path}: {rule}")

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as e:  # bad UTF-8 or bad JSON
        raise broken(f"not a JSON document ({e})") from None
    if not isinstance(doc, dict):
        raise broken("must hold a JSON object")
    L, K, sids = doc.get("L"), doc.get("K"), doc.get("sids")
    for name, v in (("L", L), ("K", K)):
        if type(v) is not int or v < 1:
            raise broken(f"{name} must be an integer >= 1")
    if not isinstance(sids, dict):
        raise broken("sids must be an object")
    if not sids:
        raise broken("sids must not be empty")
    n = len(sids) if n_items is None else n_items
    if sids.keys() != {str(i) for i in range(n)}:
        raise broken(f"sids must have exactly the item ids 0..{n - 1} "
                     f"(it has {len(sids)} ids)")
    for i, t in sids.items():
        if not (type(t) is list and len(t) == L
                and all(type(v) is int and 0 <= v < K for v in t)):
            raise broken(f"the SID of item {i} must be a list of {L} "
                         f"integers in [0, {K})")
    try:  # tokens past int64 pass the checks above
        return unisid.SidTable([sids[str(i)] for i in range(n)], K)
    except InputError as e:
        raise broken(str(e)) from None


def load_sid_table(path: str) -> np.ndarray:
    """The (n_items, L) SID tokens of a sids_*.json file."""
    return _load_sid_doc(path).tokens


def _user_sequences(cfg: Config, catalog: ItemCatalog) -> np.ndarray:
    e = cfg.eval
    return evalsuite.gen_user_sequences(catalog, e.n_users, e.T,
                                        seed=e.seq_seed)


def evaluate_scheme(cfg: Config, out: str, scheme: str, catalog: ItemCatalog,
                    seqs: np.ndarray | None = None) -> EvalReport:
    """V-measure, collisions and recall of one scheme, and its HR@K on the
    user sequences `seqs` of `_user_sequences` if they are given."""
    table = _load_sid_doc(os.path.join(out, f"sids_{scheme}.json"),
                          len(catalog.items))
    e = cfg.eval
    # each scheme has its own depth and K; the table gives them
    vs = [evalsuite.sid_level_vmeasure(table, catalog, lvl)
          for lvl in range(1, table.L + 1)]
    stats = unisid.token_stats(table.tokens)
    report = EvalReport(scheme=scheme, seed=e.seed,
                        config_digest=cfg.digest, v_measure=vs,
                        collision=stats["collision_rate"],
                        distinct_prefixes=stats["distinct_prefixes"])
    if seqs is not None:
        n_test = max(1, len(seqs) // 5)
        train_seqs, test_seqs = seqs[:-n_test], seqs[-n_test:]
        nsc = replace(e.next_sid, L=table.L, K=table.K)
        model = evalsuite.train_next_sid(train_seqs, table, nsc)
        report.hr = evalsuite.hr_at_k(model, test_seqs, table, e.k_list)
    if e.include_recall:
        bundle = _load_bundle(out, scheme)
        embed = SCHEME_TABLE[scheme][1]
        report.recall = evalsuite.retrieval_recall(
            lambda x: embed(bundle, x), catalog, e.k_list,
            n_neg=e.n_neg, seed=e.seed)
    return report


def cmd_eval(cfg: Config, out: str) -> None:
    _check_recall_pool(cfg)
    schemes = _present_schemes(out, "sids_{}.json")
    if not schemes:
        raise SidforgeError("no SID tables found; run assign first")
    catalog = _load_catalog(out)
    # every scheme is scored on the same users, so draw them once
    seqs = _user_sequences(cfg, catalog) if cfg.eval.include_hr else None
    for scheme in schemes:
        report = evaluate_scheme(cfg, out, scheme, catalog, seqs=seqs)
        report.save_json(os.path.join(out, f"eval_{scheme}.json"))
        report.save_csv(os.path.join(out, f"eval_{scheme}.csv"))
        print(f"wrote eval_{scheme}.json")


def _unisid_sub_run(cfg: Config, sub: str, catalog: ItemCatalog,
                    include_hr: bool, extra: dict,
                    train: TrainConfig) -> EvalReport:
    """train-unisid on `train` -> assign -> eval in the sub-directory
    `sub`, whose catalog is written from `catalog` unless it holds one
    already.  The three stages share one load of that file: its features
    are rounded to 9 digits, unlike the in-memory `catalog`'s."""
    os.makedirs(sub, exist_ok=True)
    if not os.path.exists(_catalog_path(sub)):
        save_catalog(catalog, _catalog_path(sub), digest=cfg.digest)
    loaded = _load_catalog(sub)
    cmd_train_unisid(cfg, sub, catalog=loaded, train=train)
    cmd_assign(cfg, sub, schemes=["unisid"], catalog=loaded)
    seqs = _user_sequences(cfg, loaded) if include_hr else None
    report = evaluate_scheme(cfg, sub, "unisid", loaded, seqs=seqs)
    report.extra.update(extra)
    report.save_json(os.path.join(sub, "eval_unisid.json"))
    return report


def cmd_sweep_lambda(cfg: Config, out: str) -> None:
    _check_recall_pool(cfg)
    catalog = generate_catalog(cfg.catalog)
    for lam in cfg.sweep.lambdas:
        sub = os.path.join(out, "sweep", f"lambda_{lam:g}")
        report = _unisid_sub_run(cfg, sub, catalog, cfg.sweep.include_hr,
                                 {"lam": lam}, replace(cfg.train, lam=lam))
        report.save_csv(os.path.join(sub, "eval_unisid.csv"))
        print(f"lambda={lam:g}: v_measure={report.v_measure}")


def cmd_ablate_joint(cfg: Config, out: str) -> None:
    _check_recall_pool(cfg)
    variants = {
        "joint": {},
        "sid_only": {"use_emb": False, "lam": 0.0},
        "emb_only": {"use_sid": False, "lam": 0.0},
    }
    if os.path.exists(_catalog_path(out)):
        catalog = load_catalog(_catalog_path(out))
    else:
        catalog = cmd_gen_data(cfg, out)
    for name, overrides in variants.items():
        report = _unisid_sub_run(cfg, os.path.join(out, "ablate", name),
                                 catalog, False, {"variant": name},
                                 replace(cfg.train, **overrides))
        print(f"{name}: v_measure={report.v_measure}")


def cmd_case_study(cfg: Config, out: str) -> None:
    catalog = _load_catalog(out)
    bundle = _load_bundle(out, "unisid")
    ids = catalog.test_ids[:cfg.case_study.n_items]
    fp = unisid.forward_batch(bundle.model, catalog.features_matrix(ids))
    h, _ = summarizer.recon_state(fp.logits, fp.embedding, bundle.pipeline)
    decoded = summarizer.decode_summary(h, bundle.pipeline)
    path = os.path.join(out, "case_study.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# config_digest: {cfg.digest}\n")
        for i, item_id in enumerate(ids):
            text = summarizer.summary_text(decoded[i], bundle.pipeline.vocab)
            f.write(f"{item_id}\t{text}\n")
    print(f"wrote {path}")


def cmd_report(cfg: Config, out: str) -> None:
    paths = [os.path.join(out, f"eval_{s}.json")
             for s in _present_schemes(out, "eval_{}.json")]
    if not paths:
        raise SidforgeError("no eval reports found; run eval first")
    rows = list(map(evalsuite.load_report, paths))
    for path, r in zip(paths, rows):  # each K a column of report.csv
        for name, m in (("hr", r.hr), ("recall", r.recall)):
            if m and set(m) != set(cfg.eval.k_list):
                raise InputError(f"{path}: {name} has K = {sorted(m)}, "
                                 f"not eval.k_list = {cfg.eval.k_list}")
    path = os.path.join(out, "report.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        # a shallower scheme leaves its missing levels empty
        depth = max(len(r.v_measure or []) for r in rows)
        k_list = cfg.eval.k_list
        w.writerow(["scheme"]
                   + [f"v_measure_l{i}" for i in range(1, depth + 1)]
                   + [f"{m}@{k}" for m in ("hr", "recall") for k in k_list]
                   + ["collision"])
        for r in rows:
            vs = r.v_measure or []
            w.writerow([r.scheme] + [f"{v:.4f}" for v in vs]
                       + [""] * (depth - len(vs))
                       + [f"{m[k]:.4f}" if m else ""
                          for m in (r.hr, r.recall) for k in k_list]
                       + ["" if r.collision is None
                          else f"{r.collision:.4f}"])
    print(f"wrote {path}")
    for r in rows:
        print(f"{r.scheme}: V={r.v_measure} HR={r.hr} R={r.recall} "
              f"collision={r.collision}")


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-unisid": cmd_train_unisid,
    "fit-rqkmeans": cmd_fit_rqkmeans,
    "train-rqvae": cmd_train_rqvae,
    "assign": cmd_assign,
    "eval": cmd_eval,
    "sweep-lambda": cmd_sweep_lambda,
    "ablate-joint": cmd_ablate_joint,
    "case-study": cmd_case_study,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sidforge",
        description="Desk-scale semantic-ID generation and evaluation")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--config", help="JSON config file (defaults if omitted)")
    p.add_argument("--seed", type=int, help="override every seed in config")
    p.add_argument("--out", help="output directory (default from config)")
    p.add_argument("--verbose", action="store_true",
                   help="print the traceback of an unexpected error")
    return p


def _apply_seed_override(cfg: dict, seed: int) -> None:
    cfg["catalog"]["seed"] = seed
    cfg["train"]["seed"] = seed + 1
    cfg["embed_train"]["seed"] = seed + 2
    cfg["rq"]["seed"] = seed + 3
    cfg["rqvae"]["seed"] = seed + 4
    cfg["eval"]["seed"] = seed + 5
    cfg["eval"]["seq_seed"] = seed + 6
    cfg["eval"]["next_sid"]["seed"] = seed + 7


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            _apply_seed_override(cfg, args.seed)
        config = check_config(cfg)
        out = args.out or cfg["paths"]["out_dir"]
        os.makedirs(out, exist_ok=True)
        COMMANDS[args.command](config, out)
    except ConfigurationError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except SidforgeError as e:
        print(f"error [{type(e).__name__}]: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001
        if args.verbose:
            traceback.print_exc()
        print(f"runtime error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
