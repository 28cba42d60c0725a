"""The golden artifact manifest: the SHA-256 of every file the CLI writes
on a few small configs, and the NumPy, BLAS and Python it was made with.

`tests/test_cli.py` checks every run against `golden_artifacts.json`.  A
change that moves bits on purpose regenerates the manifest and says which
files moved and why:

    PYTHONPATH=src python tests/golden.py

`--run NAME DIR` runs one config in DIR and prints its digests as JSON on
the last line; the thread-count test calls it in a child process, since
the BLAS thread count must be set before NumPy loads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys

import numpy as np

from sidforge.cli import main

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden_artifacts.json")

PIPELINE = ("gen-data", "train-unisid", "fit-rqkmeans", "train-rqvae",
            "assign", "eval", "case-study", "report")

# K = 16 at d = 32: the RQ levels and RQ-VAE's codebook init cluster and
# assign at their default widths, K^L is far above the beam width, and
# lambda = 0 takes the reconstruction-free training step
WIDE = {
    "catalog": {"branching": [4, 4, 2], "n_items": 256, "dv": 8, "dt": 8,
                "noise_std": 0.3, "seed": 5},
    "train": {"lam": 0.0, "epochs": 2, "batch_size": 64, "d_h": 32,
              "d_e": 32, "d_r": 8},
    "embed_train": {"epochs": 2},
    "rq": {"K": 16, "iterations": 20},
    "rqvae": {"K": 16, "d": 32, "epochs": 2, "hidden": 16},
    "eval": {"k_list": [1, 5], "n_neg": 20, "n_users": 30, "T": 8,
             "next_sid": {"d_s": 8, "hidden": 8, "epochs": 2}},
    "case_study": {"n_items": 5},
}


def runs(small: dict) -> dict[str, tuple[dict, tuple[str, ...]]]:
    """Each manifest entry's (config, commands); `small` is test_cli's
    SMALL, whose full pipeline is its `run_dir` fixture."""
    return {"small": (small, PIPELINE),
            "small-sweep": (small, ("gen-data", "sweep-lambda")),
            "small-ablate": (small, ("ablate-joint",)),
            "wide": (WIDE, PIPELINE)}


def stack() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def digests(out: str) -> dict[str, str]:
    """SHA-256 of every file under `out`, by path relative to it."""
    found = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out).replace(os.sep, "/")
            with open(path, "rb") as f:
                found[rel] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(found.items()))


def run(config: dict, commands: tuple[str, ...], root: str) -> dict[str, str]:
    """Runs `commands` on `config` into `root`/run; returns its digests."""
    cfg_path = os.path.join(root, "config.json")
    with open(cfg_path, "w") as f:
        json.dump(config, f)
    out = os.path.join(root, "run")
    with contextlib.redirect_stdout(io.StringIO()):
        for command in commands:
            code = main([command, "--config", cfg_path, "--out", out])
            if code:
                raise RuntimeError(f"{command} exited {code}")
    return digests(out)


def mismatch(name: str, got: dict[str, str]) -> str | None:
    """None if `got` matches the manifest's entry `name`; else a message
    naming the files that moved and any difference of stack."""
    with open(MANIFEST) as f:
        manifest = json.load(f)
    want = manifest["runs"][name]
    if got == want:
        return None
    moved = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    lines = [f"{name}: artifacts differ from {os.path.basename(MANIFEST)}"]
    for label, files in (("moved", moved),
                         ("missing", sorted(want.keys() - got.keys())),
                         ("new", sorted(got.keys() - want.keys()))):
        if files:
            lines.append(f"  {label}: {', '.join(files)}")
    here = stack()
    for key, value in manifest["stack"].items():
        if here.get(key) != value:
            lines.append(f"  made with {key} {value}, running {here.get(key)}")
    return "\n".join(lines)


def regenerate(small: dict, scratch: str) -> dict:
    manifest = {"stack": stack(), "runs": {}}
    for name, (config, commands) in runs(small).items():
        root = os.path.join(scratch, name)
        os.makedirs(root)
        manifest["runs"][name] = run(config, commands, root)
    with open(MANIFEST, "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")
    return manifest


if __name__ == "__main__":
    import tempfile

    from test_cli import SMALL

    if sys.argv[1:2] == ["--run"]:
        name, root = sys.argv[2], sys.argv[3]
        print(json.dumps(run(*runs(SMALL)[name], root)))
    else:
        with tempfile.TemporaryDirectory() as scratch:
            made = regenerate(SMALL, scratch)
        print(f"wrote {MANIFEST}: {sum(map(len, made['runs'].values()))} "
              f"files, {made['stack']}")
