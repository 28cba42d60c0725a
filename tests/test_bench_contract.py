"""The package interface the benchmark under benchmarks/ relies on.

The benchmark is frozen between its own changes, so a package change that
renames a traced function or alters a call the workloads make would only
show when the benchmark runs.  These tests read benchmarks/layers.py and
repeat the workloads' calls (benchmarks/workloads.py) on a tiny catalog.
They do not replace benchmarks/test_benchmark.py, which traces whole
workloads and runs outside this suite."""

import importlib
import importlib.util
import json
import os

import numpy as np
import pytest

from sidforge import cli, evalsuite, objectives, unisid
from sidforge.objectives import TrainConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
K_LIST = [1, 5, 10, 20]   # the workloads' K list and beam width
BEAM_WIDTH = 20


def _bench_layers():
    path = os.path.join(ROOT, "benchmarks", "layers.py")
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _bench_layers()


@pytest.mark.parametrize("name", LAYERS.TRACED)
def test_traced_name_resolves_as_the_tracer_looks_it_up(name):
    # Tracer.install takes `vars(owner)[attr]`: a name that moved, or a
    # method a class only inherits, stops the benchmark before it runs
    mod_name, *owner, attr = name.split(".")
    owner_obj = importlib.import_module(f"sidforge.{mod_name}")
    for part in owner:
        owner_obj = getattr(owner_obj, part)
    assert callable(vars(owner_obj)[attr])


def test_observed_names_are_traced():
    assert set(LAYERS.OBSERVERS) <= set(LAYERS.TRACED)


EPOCHS = 2


@pytest.fixture(scope="module")
def trained(small_catalog):
    """A UniSID model on the 64-item catalog, its loss report and SID
    table, and a next-SID model on the first 30 of 40 drawn users."""
    model, _, report = objectives.train_unisid(
        small_catalog, TrainConfig(epochs=EPOCHS, batch_size=32, d_h=16,
                                   d_e=8, d_r=8, seed=1))
    table, _ = unisid.assign_catalog(model, small_catalog)
    seqs = evalsuite.gen_user_sequences(small_catalog, 40, 8, seed=3)
    config = evalsuite.NextSidConfig(L=3, K=16, d_s=8, hidden=8, history=5,
                                     epochs=2, batch_size=16, lr=1e-3,
                                     seed=4)
    next_sid = evalsuite.train_next_sid(seqs[:30], table, config)
    return model, report, table, next_sid, seqs[30:]


def test_serve_decode_calls(small_catalog, trained):
    model, _, table, next_sid, users = trained
    again, _ = unisid.assign_catalog(model, small_catalog)
    assert (table != again) is False
    # one query per call, a row of the drawn array; then one batch call
    # over the same users must give the summed hits (final_check)
    hits = dict.fromkeys(K_LIST, 0.0)
    for row in users:
        for k, v in evalsuite.hr_at_k(next_sid, [row], table, K_LIST,
                                      beam_width=BEAM_WIDTH).items():
            hits[k] += v
    rates = evalsuite.hr_at_k(next_sid, users, table, K_LIST,
                              beam_width=BEAM_WIDTH)
    assert {k: round(rates[k] * len(users)) for k in K_LIST} == hits
    assert 0.0 <= evalsuite.sid_level_vmeasure(table, small_catalog,
                                               3) <= 1.0


def test_cli_pipeline_sid_file(tmp_path, trained):
    table = trained[2]
    path = tmp_path / "sids_unisid.json"
    path.write_text(json.dumps({
        "L": 3, "K": 16, "config_digest": "",
        "sids": {str(i): list(t) for i, t in table.items()}}))
    loaded = cli.load_sid_table(str(path))
    assert loaded == table
    tokens = np.array([loaded[i] for i in range(len(loaded))])
    assert tokens.shape == (len(table), 3)


def test_train_joint_report_and_batch(small_catalog, trained):
    report = trained[1]
    means = report.epoch_means(len(report.steps) // EPOCHS)
    assert len(means) == EPOCHS and all(type(m) is float for m in means)
    ids = small_catalog.train_ids[:16]
    batch = objectives.make_contrast_batch(small_catalog, ids, 0.1)
    assert len(batch.level_pos) == 3
    for pos in batch.level_pos:
        assert len(pos) == len(ids)
        assert sum(len(p) > 0 for p in pos) <= len(ids)
