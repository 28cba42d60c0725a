"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup` (run several
times, the median reported as setup_s), runs one timed pass of its unit
of work in `run_pass`, checks that pass's outputs in `check_pass` (not
timed, never traced), and computes the quality guards in `quality`.  An
operation is a training step (train-joint), a CLI command (cli-pipeline)
or a query (serve-decode); a pass runs `ops_per_pass()` of them, and
`check_pass` returns how many of them failed.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

from sidforge import catalog as catalog_mod
from sidforge import checkpoint, cli, evalsuite, numkit, objectives, unisid

from layers import CLI, CLI_COMMANDS, LEVELS, RQ_SCHEMES, SERVE, TRAIN
from tracer import Tracer

K_LIST = [1, 5, 10, 20]
BEAM_WIDTH = 20
HR_TRAIN_USERS = 1000   # users the next-SID model is trained on


def seeded_config(seed: int, overrides: dict) -> dict:
    """The CLI's default config with `overrides` merged in and every seed
    derived from `seed` exactly as `sidforge --seed` derives them."""
    cfg = cli.load_config(None)
    for section, fields in overrides.items():
        cfg[section].update(copy.deepcopy(fields))
    cfg["catalog"]["seed"] = seed
    cfg["train"]["seed"] = seed + 1
    cfg["embed_train"]["seed"] = seed + 2
    cfg["rq"]["seed"] = seed + 3
    cfg["rqvae"]["seed"] = seed + 4
    cfg["eval"]["seed"] = seed + 5
    cfg["eval"]["seq_seed"] = seed + 6
    cfg["eval"]["next_sid"]["seed"] = seed + 7
    return cfg


def catalog_spec(cfg: dict) -> catalog_mod.CatalogSpec:
    c = dict(cfg["catalog"])
    c["branching"] = tuple(c["branching"])
    return catalog_mod.CatalogSpec(**c)


def next_sid_model(cfg: dict, cat, table: dict, n_eval: int):
    """Trains the next-SID model on HR_TRAIN_USERS seeded users; returns
    it with the next `n_eval` users of the same stream, held out."""
    e, ns = cfg["eval"], cfg["eval"]["next_sid"]
    seqs = evalsuite.gen_user_sequences(cat, HR_TRAIN_USERS + n_eval, e["T"],
                                        seed=e["seq_seed"])
    config = evalsuite.NextSidConfig(
        L=cfg["train"]["L"], K=cfg["train"]["K"], d_s=ns["d_s"],
        hidden=ns["hidden"], history=ns["history"], epochs=ns["epochs"],
        batch_size=ns["batch_size"], lr=ns["lr"], seed=ns["seed"])
    model = evalsuite.train_next_sid(seqs[:HR_TRAIN_USERS], table, config)
    return model, seqs[HR_TRAIN_USERS:]


def last_epoch_mean(totals: list[float], epochs: int) -> float:
    per_epoch = len(totals) // epochs
    return float(np.mean(totals[-per_epoch:]))


def code_usage(tokens: np.ndarray, K: int) -> list[float]:
    """Share of the K codewords used, per level, over an (n, L) table."""
    return [len(np.unique(tokens[:, lvl])) / K
            for lvl in range(tokens.shape[1])]


def nearest_codeword_oracle(levels: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Brute-force residual quantization: per level, scan every codeword
    and keep the first one at the smallest squared distance."""
    tokens = np.empty((x.shape[0], levels.shape[0]), dtype=np.int64)
    for i in range(x.shape[0]):
        r = x[i].copy()
        for lvl in range(levels.shape[0]):
            best, best_d = 0, math.inf
            for k in range(levels.shape[1]):
                d = float(np.sum((levels[lvl, k] - r) ** 2))
                if d < best_d:
                    best, best_d = k, d
            tokens[i, lvl] = best
            r = r - levels[lvl, best]
    return tokens


class Workload:
    """Base: subclasses set `name`, `config` and `REFERENCE`, the parts
    of the reference kernel that are like their work (see reference.py).
    `run_pass` returns the pass's `segments`, timed on `clock.now()`: the
    same sequence of timed pieces on every pass, summing to about the
    pass.  `final_check` runs
    once after the timed loop and returns further failed operations.
    `quality` returns {guard: (value, sample count)} and fills `info`
    with values that are printed but not gated, as (name, value, unit,
    count)."""

    name = ""

    def __init__(self, seed: int, work_dir: str, clock):
        self.seed = seed
        self.work_dir = work_dir
        self.clock = clock   # reference.Reference: times exclude its kernel
        self.code_usage: dict = {}
        self.info: list = []

    def config_digest(self) -> str:
        return cli.config_digest(self.config)

    def final_check(self) -> int:
        return 0


# --- train-joint --------------------------------------------------------

class TrainJoint(Workload):
    """objectives.train_unisid on the default catalog and TrainConfig for
    4 epochs; the decoder trains in the first half and is frozen after."""

    name = TRAIN
    REFERENCE = ("decode", "train", "kmeans")
    EPOCHS = 4
    OP_NAME, OP_SLICE = "step", slice(1, None)

    def __init__(self, seed, work_dir, clock):
        super().__init__(seed, work_dir, clock)
        self.config = seeded_config(seed, {"train": {"epochs": self.EPOCHS}})
        self.first_ckpt = None
        self.last = None

    def setup(self) -> None:
        self.catalog = catalog_mod.generate_catalog(catalog_spec(self.config))
        self.train_config = objectives.TrainConfig(**self.config["train"])
        n, bs = len(self.catalog.train_ids), self.train_config.batch_size
        self.batch_sizes = [min(bs, n - s) for s in range(0, n, bs)
                            if n - s >= 2]

    def run_pass(self) -> dict:
        # a step is marked where its make_contrast_batch call returns; the
        # first segment is the set-up inside train_unisid and the first
        # batch
        bounds = [self.clock.now()]
        mark = {"objectives.make_contrast_batch":
                lambda *_: bounds.append(self.clock.now())}
        with Tracer().installed("sidforge", list(mark), mark):
            result = objectives.train_unisid(self.catalog, self.train_config)
        bounds.append(self.clock.now())
        return {"result": result, "segments": list(np.diff(bounds)),
                "items": self.EPOCHS * sum(self.batch_sizes)}

    def ops_per_pass(self) -> int:
        return self.EPOCHS * len(self.batch_sizes)

    def check_pass(self, data) -> int:
        model, pipeline, report = data["result"]
        steps = np.array(report.steps)
        means = report.epoch_means(len(report.steps) // self.EPOCHS)
        bad = int((~np.isfinite(steps).all(axis=1)).sum())
        path = os.path.join(self.work_dir, "unisid.ckpt")
        checkpoint.save_checkpoint(
            checkpoint.UniSidBundle(model=model, pipeline=pipeline,
                                    digest=self.config_digest()), path)
        with open(path, "rb") as f:
            blob = f.read()
        if self.first_ckpt is None:
            self.first_ckpt = blob
        if not means[-1] < means[0] or blob != self.first_ckpt:
            print(f"# epoch means {means[0]:.4f} -> {means[-1]:.4f}, "
                  f"checkpoint equal to pass 0: {blob == self.first_ckpt}",
                  file=sys.stderr)
            bad = len(report.steps)
        self.last = (model, report)
        return bad

    def quality(self) -> dict:
        model, report = self.last
        cfg, cat = self.config, self.catalog
        table, _ = unisid.assign_catalog(model, cat)
        recall = evalsuite.retrieval_recall(
            lambda x: unisid.embed_batch(model, x), cat, K_LIST,
            n_neg=cfg["eval"]["n_neg"], seed=cfg["eval"]["seed"])
        n_test = len(cat.test_ids)
        return {"final_loss": (last_epoch_mean([s[3] for s in report.steps],
                                               self.EPOCHS),
                               len(report.steps) // self.EPOCHS),
                "recall_at_10": (recall[10], n_test),
                "v_measure_l3": (evalsuite.sid_level_vmeasure(
                    table, cat, LEVELS), n_test)}


# --- cli-pipeline -------------------------------------------------------

class CliPipeline(Workload):
    """In-process cli.main for gen-data -> train-unisid -> fit-rqkmeans ->
    train-rqvae -> assign -> eval -> report into a fresh out dir, on the
    default config with shortened epochs."""

    name = CLI
    REFERENCE = ("decode", "train", "kmeans")
    OP_NAME, OP_SLICE = "command", slice(None)
    # trimmed so that a pass takes a few seconds and a run holds several
    OVERRIDES = {"catalog": {"n_items": 1024}, "train": {"epochs": 2},
                 "embed_train": {"epochs": 2}, "rqvae": {"epochs": 2},
                 "eval": {"n_users": 500}}
    ORACLE_SAMPLE = 64

    def __init__(self, seed, work_dir, clock):
        super().__init__(seed, work_dir, clock)
        self.config = seeded_config(seed, self.OVERRIDES)
        self.config_path = os.path.join(work_dir, "config.json")
        self.passes = 0
        self.last_out = None

    def setup(self) -> None:
        """Writes the config file and starts a fresh interpreter that
        imports the CLI: the start-up every `sidforge` command pays."""
        with open(self.config_path, "w", encoding="utf-8") as f:
            json.dump(self.OVERRIDES, f)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        # no timeout: with one, the wait polls in 50 ms steps and the
        # measured set-up time is rounded to them
        subprocess.run([sys.executable, "-c", "import sidforge.cli"],
                       env=env, check=True)

    def run_pass(self) -> dict:
        out = os.path.join(self.work_dir, f"pass{self.passes}")
        self.passes += 1
        shutil.rmtree(out, ignore_errors=True)
        codes, segments, errors = [], [], []
        for command in CLI_COMMANDS:
            self.clock.tick()
            err = io.StringIO()
            t0 = self.clock.now()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = cli.main([command, "--config", self.config_path,
                                   "--out", out, "--seed", str(self.seed)])
                except SystemExit as e:  # argparse usage errors
                    rc = e.code
            segments.append(self.clock.now() - t0)
            codes.append(rc)
            errors.append(err.getvalue().strip())
        return {"segments": segments,
                "codes": codes, "errors": errors, "out": out}

    def ops_per_pass(self) -> int:
        return len(CLI_COMMANDS)

    ARTIFACTS = {
        "gen-data": ["catalog.json"],
        "train-unisid": ["unisid.ckpt", "loss_unisid.csv"],
        "fit-rqkmeans": ["rqkmeans.ckpt", "loss_rqkmeans_embed.csv"],
        "train-rqvae": ["rqvae.ckpt", "loss_rqvae.csv"],
        "assign": [f"sids_{s}.json" for s in cli.SCHEMES],
        "eval": [f"eval_{s}.{x}" for s in cli.SCHEMES
                 for x in ("json", "csv")],
        "report": ["report.csv"],
    }

    def check_pass(self, data) -> int:
        out = data["out"]
        failed = set()
        for command, rc, err in zip(CLI_COMMANDS, data["codes"],
                                    data["errors"]):
            missing = [a for a in self.ARTIFACTS[command]
                       if not os.path.exists(os.path.join(out, a))]
            if rc != 0 or missing:
                print(f"# {command}: exit {rc}, missing {missing}: {err}",
                      file=sys.stderr)
                failed.add(command)
        if "eval" not in failed and not self._eval_in_range(out):
            failed.add("eval")
        if not failed and not self._rq_tokens_match_oracle(out):
            failed.add("assign")
        if self.last_out and self.last_out != out:
            shutil.rmtree(self.last_out, ignore_errors=True)
        self.last_out = out
        return len(failed)

    def _eval_in_range(self, out: str) -> bool:
        digest = self.config_digest()
        for scheme in cli.SCHEMES:
            r = evalsuite.load_report(os.path.join(out, f"eval_{scheme}.json"))
            values = (list(r.v_measure) + list(r.hr.values())
                      + list(r.recall.values()) + [r.collision])
            if r.config_digest != digest or not all(
                    0.0 <= v <= 1.0 for v in values):
                print(f"# eval_{scheme}.json out of range or wrong digest",
                      file=sys.stderr)
                return False
        return True

    def _rq_tokens_match_oracle(self, out: str) -> bool:
        cat = catalog_mod.load_catalog(os.path.join(out, "catalog.json"))
        rng = np.random.default_rng(self.seed)
        sample = np.sort(rng.choice(len(cat.items), self.ORACLE_SAMPLE,
                                    replace=False))
        x = cat.features_matrix([int(i) for i in sample])
        ok = True
        for scheme in RQ_SCHEMES:
            bundle = checkpoint.load_checkpoint(
                os.path.join(out, f"{scheme}.ckpt"))
            if scheme == "rqkmeans":
                z, levels = (unisid.embed_batch(bundle.embed_model, x),
                             bundle.codebook.levels)
            else:
                z, levels = (numkit.mlp_apply(bundle.model.encoder, x)[0],
                             bundle.model.codebook.levels)
            table = self._sid_tokens(out, scheme)
            if not np.array_equal(nearest_codeword_oracle(levels, z),
                                  table[sample]):
                print(f"# {scheme} tokens differ from the oracle",
                      file=sys.stderr)
                ok = False
            for lvl, share in enumerate(code_usage(table, levels.shape[1]),
                                        start=1):
                self.code_usage[f"rq.code_usage.{scheme}.l{lvl}"] = share
        return ok

    @staticmethod
    def _sid_tokens(out: str, scheme: str) -> np.ndarray:
        table = cli.load_sid_table(os.path.join(out, f"sids_{scheme}.json"))
        return np.array([table[i] for i in range(len(table))], dtype=np.int64)

    def quality(self) -> dict:
        out = self.last_out
        cat = catalog_mod.load_catalog(os.path.join(out, "catalog.json"))
        report = evalsuite.load_report(os.path.join(out, "eval_unisid.json"))
        with open(os.path.join(out, "loss_unisid.csv"), newline="") as f:
            totals = [float(row["L_total"]) for row in csv.DictReader(f)]
        epochs, n_test = self.config["train"]["epochs"], len(cat.test_ids)
        n_users = self.config["eval"]["n_users"]
        self.info = [("hr_at_10", report.hr[10], "fraction",
                      max(1, n_users // 5))]
        return {"final_loss": (last_epoch_mean(totals, epochs),
                               len(totals) // epochs),
                "recall_at_10": (report.recall[10], n_test),
                "v_measure_l3": (report.v_measure[LEVELS - 1], n_test)}


# --- serve-decode -------------------------------------------------------

class ServeDecode(Workload):
    """Read-only generative retrieval.  Set-up trains a short unisid model,
    writes the catalog and checkpoint, and trains a next-SID model; a
    timed pass loads both, assigns SIDs, serves one chunk of the held-out
    users in a closed loop, one query each, and runs one retrieval-recall
    pass.  Passes serve the chunks in turn."""

    name = SERVE
    REFERENCE = ("decode",)
    OP_NAME, OP_SLICE = "query", slice(1, -1)
    EPOCHS = 4   # as train-joint: the same model for the same seed
    QUERY_USERS = 4000
    CHUNK = 1000

    def __init__(self, seed, work_dir, clock):
        super().__init__(seed, work_dir, clock)
        self.config = seeded_config(seed, {"train": {"epochs": self.EPOCHS}})
        self.catalog_path = os.path.join(work_dir, "catalog.json")
        self.ckpt_path = os.path.join(work_dir, "unisid.ckpt")
        self.passes = 0
        self.served: dict = {}   # chunk -> hits at K of its first serving

    def setup(self) -> None:
        cfg = self.config
        cat = catalog_mod.generate_catalog(catalog_spec(cfg))
        model, pipeline, report = objectives.train_unisid(
            cat, objectives.TrainConfig(**cfg["train"]))
        digest = self.config_digest()
        catalog_mod.save_catalog(cat, self.catalog_path, digest=digest)
        checkpoint.save_checkpoint(
            checkpoint.UniSidBundle(model=model, pipeline=pipeline,
                                    digest=digest), self.ckpt_path)
        self.table, _ = unisid.assign_catalog(model, cat)
        self.model, self.users = next_sid_model(cfg, cat, self.table,
                                                self.QUERY_USERS)
        self.report = report

    def ops_per_pass(self) -> int:
        return self.CHUNK

    def _chunk_users(self, chunk: int) -> list:
        return self.users[chunk * self.CHUNK:(chunk + 1) * self.CHUNK]

    def run_pass(self) -> dict:
        e = self.config["eval"]
        chunk = self.passes % (self.QUERY_USERS // self.CHUNK)
        self.passes += 1
        now = self.clock.now
        start = now()
        cat = catalog_mod.load_catalog(self.catalog_path)
        bundle = checkpoint.load_checkpoint(self.ckpt_path)
        table, _ = unisid.assign_catalog(bundle.model, cat)
        segments = [now() - start]
        hits = dict.fromkeys(K_LIST, 0.0)
        errors = 0
        for seq in self._chunk_users(chunk):
            t0 = now()
            try:
                h = evalsuite.hr_at_k(self.model, [seq], table, K_LIST,
                                      beam_width=BEAM_WIDTH)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                errors += 1
                print(f"# query failed: {exc!r}", file=sys.stderr)
                h = dict.fromkeys(K_LIST, 0.0)
            segments.append(now() - t0)
            for k in K_LIST:
                hits[k] += h[k]
        t0 = now()
        recall = evalsuite.retrieval_recall(
            lambda x: unisid.embed_batch(bundle.model, x), cat, K_LIST,
            n_neg=e["n_neg"], seed=e["seed"])
        segments.append(now() - t0)
        return {"segments": segments, "chunk": chunk,
                "errors": errors, "hits": hits, "recall": recall,
                "table": table, "catalog": cat}

    def check_pass(self, data) -> int:
        if data["table"] != self.table:
            print("# SID table after the checkpoint round trip differs",
                  file=sys.stderr)
            return self.CHUNK
        hits = {k: round(v) for k, v in data["hits"].items()}
        if self.served.setdefault(data["chunk"], hits) != hits:
            print("# the same users served again gave other hits",
                  file=sys.stderr)
            return self.CHUNK
        self.last = data
        return data["errors"]

    def final_check(self) -> int:
        """For every chunk served, one batch hr_at_k over the same users,
        outside the timed loop: its hits must equal the summed per-query
        hits, and every beam it decodes must be sorted, of full width and
        with tokens in [0, K)."""
        K, L = self.config["train"]["K"], self.config["train"]["L"]
        failed = 0
        for chunk, hits in sorted(self.served.items()):
            beams = []
            recorder = Tracer()
            recorder.install("sidforge", ["evalsuite.beam_decode"],
                             {"evalsuite.beam_decode":
                              lambda t, a, kw, result: beams.append(result)})
            try:
                rates = evalsuite.hr_at_k(self.model, self._chunk_users(chunk),
                                          self.table, K_LIST,
                                          beam_width=BEAM_WIDTH)
            finally:
                recorder.uninstall()
            bad = sum(not self._beam_ok(b, K, L) for b in beams)
            if {k: round(rates[k] * self.CHUNK) for k in K_LIST} != hits:
                print(f"# chunk {chunk}: per-query hits differ from the "
                      "batch hr_at_k", file=sys.stderr)
                bad = self.CHUNK
            failed += bad
        return failed

    @staticmethod
    def _beam_ok(beam, K: int, L: int) -> bool:
        keys = [(-score, tokens) for score, tokens in beam]
        return (len(beam) == BEAM_WIDTH and keys == sorted(keys)
                and all(len(t) == L and all(0 <= x < K for x in t)
                        for _, t in beam))

    def quality(self) -> dict:
        data, cat = self.last, self.last["catalog"]
        n_test = len(cat.test_ids)
        n = self.CHUNK * len(self.served)
        hits_10 = sum(h[10] for h in self.served.values())
        self.info = [("hr_at_10", hits_10 / n, "fraction", n)]
        return {"final_loss": (last_epoch_mean(
                    [s[3] for s in self.report.steps], self.EPOCHS),
                    len(self.report.steps) // self.EPOCHS),
                "recall_at_10": (data["recall"][10], n_test),
                "v_measure_l3": (evalsuite.sid_level_vmeasure(
                    data["table"], cat, LEVELS), n_test)}


WORKLOADS = {w.name: w for w in (TrainJoint, CliPipeline, ServeDecode)}
