"""Benchmark-side tests: the tracer, the RQ oracle, BENCHMARK.json, and
the layer table against a traced run of every workload.

    python3 -m pytest benchmarks/test_benchmark.py

The traced runs take a few minutes in total.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
from reference import NOMINAL_S, Reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import nearest_codeword_oracle  # noqa: E402

from sidforge import cli, numkit, objectives, rq, unisid  # noqa: E402
from sidforge.catalog import build_positive_sets  # noqa: E402


def test_tracer_self_time_and_uninstall():
    model = unisid.init_model(8, unisid.UniSidConfig(L=2, K=4, d_h=8, d_e=4),
                              seed=0)
    commands = dict(cli.COMMANDS)
    tracer = Tracer()
    tracer.install("sidforge", ["unisid.forward_batch", "numkit.mlp_apply",
                                "catalog.build_positive_sets",
                                "cli.cmd_gen_data"])
    try:
        assert objectives.build_positive_sets is not build_positive_sets
        assert cli.COMMANDS["gen-data"] is not commands["gen-data"]
        unisid.embed_batch(model, np.ones((3, 8)))
    finally:
        tracer.uninstall()
    assert objectives.build_positive_sets is build_positive_sets
    assert cli.COMMANDS == commands
    agg = tracer.aggregate()
    assert agg["unisid.forward_batch"]["calls"] == 1
    assert agg["numkit.mlp_apply"]["calls"] == 3
    assert tracer.child_calls("numkit.mlp_apply", "unisid.forward_batch") == 3
    fb = agg["unisid.forward_batch"]
    assert fb["self_s"] == pytest.approx(
        fb["total_s"] - agg["numkit.mlp_apply"]["total_s"], abs=1e-9)


def test_oracle_matches_rq_assign_with_ties():
    rng = np.random.default_rng(0)
    levels = rng.normal(size=(3, 8, 4))
    levels[:, 5] = levels[:, 2]  # duplicate codewords: ties go to index 2
    x = np.concatenate([rng.normal(size=(40, 4)), levels[0, [2, 5]]])
    tokens = nearest_codeword_oracle(levels, x)
    assert np.array_equal(tokens,
                          rq.rq_assign_batch(rq.Codebook(levels=levels), x))
    assert not (tokens == 5).any()


def test_reference_clock():
    clock = Reference(("decode", "kmeans"))
    nominal = NOMINAL_S["decode"] + NOMINAL_S["kmeans"]
    # a host at half the nominal speed doubles raw times; scaling undoes it
    assert clock.scale(3.0, [2 * nominal] * 3) == pytest.approx(1.5)
    assert clock.scale(3.0, [nominal, 3 * nominal]) == pytest.approx(1.5)
    t0 = clock.now()
    kernel = clock.sample()
    assert 0 <= clock.now() - t0 < kernel
    # a hooked call ticks once INTERVAL_S has passed, and only then
    points = np.random.default_rng(0).normal(size=(20, 2))
    with clock.hooked():
        clock._due = float("inf")
        numkit.kmeans_fit(points, 2, iterations=2, seed=0)
        assert len(clock.samples) == 1
        clock._due = 0.0
        numkit.kmeans_fit(points, 2, iterations=2, seed=0)
        assert len(clock.samples) == 2
    assert numkit.kmeans_fit.__module__ == "sidforge.numkit"
    assert not hasattr(numkit.kmeans_fit, "__wrapped__")


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == layers.per_layer_metrics())
    assert len(spec["per_layer"]) <= 128
    assert {w["name"] for w in spec["workloads"]} == {
        layers.TRAIN, layers.CLI, layers.SERVE}


def run_json(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result["metrics"]


def test_untraced_run_reports_every_end_to_end_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metrics = run_json(layers.TRAIN, trace=0)
    assert ([(k, v["unit"]) for k, v in metrics.items()]
            == [(m["name"], m["unit"]) for m in spec["end_to_end"]])
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.fixture(scope="module")
def traced():
    """Per-layer metric values of one traced run of each workload."""
    return {workload: {k: v["value"]
                       for k, v in run_json(workload, trace=1).items()}
            for workload in (layers.TRAIN, layers.CLI, layers.SERVE)}


@pytest.mark.parametrize("row", layers.LAYER_TABLE,
                         ids=[r[0][0] for r in layers.LAYER_TABLE])
def test_layer_table_matches_traced_calls(traced, row):
    functions, exercised, unchanged = row
    for fn in functions:
        for workload in exercised:
            assert traced[workload][f"{fn}.calls"] > 0, (fn, workload)
        for workload in unchanged:
            assert traced[workload][f"{fn}.calls"] == 0, (fn, workload)


def test_traced_ratios(traced):
    # L=3, K=16, beam width 20: 1 + 16 + 20 scorer calls per query
    for workload in (layers.CLI, layers.SERVE):
        assert traced[workload][
            "evalsuite.beam_decode.mlp_calls_per_query"] == 37
    # cli-pipeline's embedding-only stage trains with lam=0
    assert traced[layers.TRAIN]["summarizer.recon_useful_frac"] == 1.0
    assert traced[layers.CLI]["summarizer.recon_useful_frac"] == 0.5
    for workload in (layers.TRAIN, layers.CLI):
        v = traced[workload]
        assert 0 < v["objectives.emb_query_yield"] < 1
        assert (v["objectives.emb_query_yield"]
                == v["objectives.level_query_yield.l3"])
    assert all(0 < traced[layers.CLI][f"rq.code_usage.{s}.l{i}"] <= 1
               for s in layers.RQ_SCHEMES for i in (1, 2, 3))
