"""The traced layers, the workloads that exercise them, and the per-layer
metrics of the traced run.

Each row of LAYER_TABLE is (functions, workloads that exercise them,
workloads predicted not to change).  A function is never called in the
timed phase of a workload in the third column; test_benchmark.py checks
both columns against a traced run.  README.md gives the end-to-end
metric each row should move.
"""

from __future__ import annotations

TRAIN, CLI, SERVE = "train-joint", "cli-pipeline", "serve-decode"

CLI_COMMANDS = ("gen-data", "train-unisid", "fit-rqkmeans", "train-rqvae",
                "assign", "eval", "report")

LAYER_TABLE = [
    (("summarizer.recon_state", "summarizer.recon_loss"),
     (TRAIN, CLI), (SERVE,)),
    (("objectives.train_unisid", "objectives.make_contrast_batch",
      "objectives.mg_contrastive_loss", "objectives.emb_contrastive_loss",
      "catalog.build_positive_sets"),
     (TRAIN, CLI), (SERVE,)),
    (("numkit.mlp_grad", "numkit.adam_step"), (TRAIN, CLI), (SERVE,)),
    # shared: serve-decode calls both in assign_catalog and retrieval_recall
    (("unisid.forward_batch", "catalog.ItemCatalog.features_matrix"),
     (TRAIN, CLI, SERVE), ()),
    # shared: every model in every workload runs through mlp_apply
    (("numkit.mlp_apply",), (TRAIN, CLI, SERVE), ()),
    (("evalsuite.beam_decode", "evalsuite.hr_at_k",
      "evalsuite.retrieval_recall", "unisid.assign_catalog"),
     (CLI, SERVE), (TRAIN,)),
    (("numkit.kmeans_fit", "rq.rq_kmeans_fit", "rq.rq_assign_batch",
      "rq.rq_vae_loss_grads", "rq.rq_vae_fit"),
     (CLI,), (TRAIN, SERVE)),
    (("checkpoint.load_checkpoint", "catalog.load_catalog"),
     (CLI, SERVE), (TRAIN,)),
    # serve-decode writes its artifacts and trains its next-SID model
    # during set-up, outside the timed phase
    (("checkpoint.save_checkpoint", "catalog.save_catalog",
      "evalsuite.train_next_sid", "evalsuite.sid_level_vmeasure"),
     (CLI,), (TRAIN, SERVE)),
    (tuple("cli.cmd_" + c.replace("-", "_") for c in CLI_COMMANDS),
     (CLI,), (TRAIN, SERVE)),
]

TRACED = [fn for row in LAYER_TABLE for fn in row[0]]

LEVELS = 3
RQ_SCHEMES = ("rqkmeans", "rqvae")

RATIOS = (["objectives.emb_query_yield"]
          + [f"objectives.level_query_yield.l{i}"
             for i in range(1, LEVELS + 1)]
          + ["summarizer.recon_useful_frac"]
          + [f"rq.code_usage.{s}.l{i}" for s in RQ_SCHEMES
             for i in range(1, LEVELS + 1)]
          + ["evalsuite.beam_decode.mlp_calls_per_query"])


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric of the traced run, as (name, unit)."""
    out = []
    for fn in TRACED:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s"),
                (f"{fn}.ms_per_call", "ms")]
    out += [(name, "ratio") for name in RATIOS]
    out += [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return out


# --- counters recorded at the layer boundaries --------------------------

def _observe_contrast_batch(tracer, args, kwargs, batch) -> None:
    n = len(batch.ids)
    c = tracer.counts
    c["queries"] += n
    c["emb_queries_with_mate"] += int((batch.emb_pos >= 0).sum())
    for lvl, pos in enumerate(batch.level_pos, start=1):
        c[f"level{lvl}_queries_with_positive"] += sum(len(p) > 0 for p in pos)


def _observe_recon_loss(tracer, args, kwargs, result) -> None:
    outer = tracer.enclosing("objectives.train_unisid")
    config = outer[0][1] if len(outer[0]) > 1 else outer[1]["config"]
    tracer.counts["recon_loss_calls"] += 1
    tracer.counts["recon_loss_useful"] += int(config.lam > 0)


OBSERVERS = {
    "objectives.make_contrast_batch": _observe_contrast_batch,
    "summarizer.recon_loss": _observe_recon_loss,
}


def _share(num: float, den: float) -> float:
    """A ratio whose base is zero (the layer never ran) reads 0."""
    return num / den if den else 0.0


def layer_values(tracer, traced_passes: int, code_usage: dict) -> dict:
    """Per-layer metric values per traced timed pass."""
    agg = tracer.aggregate()
    c = tracer.counts
    values = {}
    for fn in TRACED:
        row = agg.get(fn, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        values[f"{fn}.calls"] = row["calls"] / traced_passes
        values[f"{fn}.self_s"] = row["self_s"] / traced_passes
        values[f"{fn}.ms_per_call"] = _share(1e3 * row["total_s"],
                                             row["calls"])
    values["objectives.emb_query_yield"] = _share(
        c["emb_queries_with_mate"], c["queries"])
    for lvl in range(1, LEVELS + 1):
        values[f"objectives.level_query_yield.l{lvl}"] = _share(
            c[f"level{lvl}_queries_with_positive"], c["queries"])
    values["summarizer.recon_useful_frac"] = _share(
        c["recon_loss_useful"], c["recon_loss_calls"])
    for scheme in RQ_SCHEMES:
        for lvl in range(1, LEVELS + 1):
            name = f"rq.code_usage.{scheme}.l{lvl}"
            values[name] = code_usage.get(name, 0.0)
    values["evalsuite.beam_decode.mlp_calls_per_query"] = _share(
        tracer.child_calls("numkit.mlp_apply", "evalsuite.beam_decode"),
        agg.get("evalsuite.beam_decode", {"calls": 0})["calls"])
    return values
