"""Tests for the binary checkpoint format."""

import hashlib
import json
import struct

import numpy as np
import pytest

from sidforge import numkit
from sidforge.checkpoint import (MAGIC, RqKmeansBundle, RqVaeBundle,
                                 UniSidBundle, load_checkpoint,
                                 save_checkpoint)
from sidforge.errors import (CheckpointCorruptionError,
                             CheckpointFormatError)
from sidforge.catalog import build_tree
from sidforge.rq import Codebook, RqVaeModel
from sidforge.summarizer import build_vocab
from sidforge.unisid import UniSidConfig, init_model
from testkit import init_pipeline


def _f32(model):
    for m in (model.encoder, model.sid_head, model.emb_head):
        m.set_flat([numkit.quantize_f32(p) for p in m.flat()])
    return model


def _unisid_bundle(seed=0):
    cfg = UniSidConfig(L=2, K=4, d_h=8, d_e=6)
    model = _f32(init_model(10, cfg, seed))
    vocab = build_vocab(build_tree((2, 2, 2)))
    pipe = init_pipeline(2, 4, 6, 5, vocab, seed + 1, hidden=8)
    for m in (pipe.recon_head, pipe.decoder):
        m.set_flat([numkit.quantize_f32(p) for p in m.flat()])
    return UniSidBundle(model=model, pipeline=pipe, digest="d1" * 8)


def _rqkmeans_bundle():
    model = _f32(init_model(10, UniSidConfig(L=2, K=4, d_h=8, d_e=6), 1))
    # a fitted codebook is float64, off the float32 grid
    levels = np.random.default_rng(5).normal(size=(2, 4, 6))
    return RqKmeansBundle(embed_model=model, codebook=Codebook(levels=levels),
                          digest="abc")


def _rqvae_bundle():
    r = np.random.default_rng(0)
    enc = numkit.mlp_init([6, 8, 4], r)
    dec = numkit.mlp_init([4, 8, 6], r)
    cb = Codebook(levels=r.normal(size=(2, 3, 4)))
    return RqVaeBundle(model=RqVaeModel(encoder=enc, decoder=dec,
                                        codebook=cb, beta=0.25),
                       digest="xyz")


BUNDLES = {"unisid": _unisid_bundle, "rqkmeans": _rqkmeans_bundle,
           "rqvae": _rqvae_bundle}

# SHA-256 of each fixed-seed bundle's file in the version-1 layout; a
# layout change must bump VERSION and update these on purpose
GOLDEN_SHA256 = {
    "unisid": "19273225814ac824f13be0587c9ecaefb0194023d73fbfad6c6a6e7deb4395ea",
    "rqkmeans": "a9dfd707d3beec93249d78ec106a16798d03be6656d3fe970cda7495ab32b713",
    "rqvae": "f165ea9c13f705679a6cbbfdc74eea95c83683a6a354b4752f6bdece3ec5a60b",
}


def _assert_mlp_equal(a, b):
    assert a.activations == b.activations
    for x, y in zip(a.flat(), b.flat()):
        np.testing.assert_array_equal(x, y)


def test_unisid_roundtrip_bit_exact(tmp_path):
    bundle = _unisid_bundle()
    p = str(tmp_path / "m.ckpt")
    save_checkpoint(bundle, p)
    got = load_checkpoint(p)
    assert isinstance(got, UniSidBundle)
    assert got.digest == bundle.digest
    assert got.model.config == bundle.model.config
    for name in ("encoder", "sid_head", "emb_head"):
        _assert_mlp_equal(getattr(got.model, name),
                          getattr(bundle.model, name))
    _assert_mlp_equal(got.pipeline.recon_head, bundle.pipeline.recon_head)
    _assert_mlp_equal(got.pipeline.decoder, bundle.pipeline.decoder)
    assert got.pipeline.vocab.tokens == bundle.pipeline.vocab.tokens
    # save -> load -> save reproduces the exact bytes
    p2 = str(tmp_path / "m2.ckpt")
    save_checkpoint(got, p2)
    assert open(p, "rb").read() == open(p2, "rb").read()


def test_rqkmeans_roundtrip(tmp_path, rng):
    model = _f32(init_model(10, UniSidConfig(L=2, K=4, d_h=8, d_e=6), 1))
    cb = Codebook(levels=numkit.quantize_f32(rng.normal(size=(2, 4, 6))))
    bundle = RqKmeansBundle(embed_model=model, codebook=cb, digest="abc")
    p = str(tmp_path / "rq.ckpt")
    save_checkpoint(bundle, p)
    got = load_checkpoint(p)
    assert isinstance(got, RqKmeansBundle)
    np.testing.assert_array_equal(got.codebook.levels, cb.levels)
    _assert_mlp_equal(got.embed_model.emb_head, model.emb_head)


def test_rqvae_roundtrip(tmp_path, rng):
    r = np.random.default_rng(0)
    enc = numkit.mlp_init([6, 8, 4], r)
    dec = numkit.mlp_init([4, 8, 6], r)
    cb = Codebook(levels=numkit.quantize_f32(rng.normal(size=(2, 3, 4))))
    bundle = RqVaeBundle(model=RqVaeModel(encoder=enc, decoder=dec,
                                          codebook=cb, beta=0.25),
                         digest="xyz")
    p = str(tmp_path / "vae.ckpt")
    save_checkpoint(bundle, p)
    got = load_checkpoint(p)
    assert isinstance(got, RqVaeBundle)
    assert got.model.beta == 0.25
    np.testing.assert_array_equal(got.model.codebook.levels, cb.levels)
    _assert_mlp_equal(got.model.encoder, enc)
    _assert_mlp_equal(got.model.decoder, dec)


def test_bad_magic_and_version(tmp_path):
    bundle = _unisid_bundle()
    p = str(tmp_path / "m.ckpt")
    save_checkpoint(bundle, p)
    raw = open(p, "rb").read()
    assert raw[:4] == MAGIC

    bad = str(tmp_path / "bad.ckpt")
    open(bad, "wb").write(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(bad)

    open(bad, "wb").write(raw[:4] + b"\x63" + raw[5:])
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(bad)

    open(bad, "wb").write(raw[:8] + b"\x7f" + raw[9:])
    with pytest.raises(CheckpointFormatError, match="kind"):
        load_checkpoint(bad)


def test_truncation_detected(tmp_path):
    bundle = _unisid_bundle()
    p = str(tmp_path / "m.ckpt")
    save_checkpoint(bundle, p)
    raw = open(p, "rb").read()
    for cut in (4, 14, len(raw) // 2, len(raw) - 1):
        bad = str(tmp_path / "cut.ckpt")
        open(bad, "wb").write(raw[:cut])
        with pytest.raises(CheckpointCorruptionError):
            load_checkpoint(bad)


def test_garbage_metadata_detected(tmp_path):
    bundle = _unisid_bundle()
    p = str(tmp_path / "m.ckpt")
    save_checkpoint(bundle, p)
    raw = bytearray(open(p, "rb").read())
    raw[16] = 0xFF  # corrupt the first JSON byte
    bad = str(tmp_path / "bad.ckpt")
    open(bad, "wb").write(bytes(raw))
    with pytest.raises(CheckpointCorruptionError):
        load_checkpoint(bad)


def test_atomic_save_leaves_no_temp_files(tmp_path):
    bundle = _unisid_bundle()
    save_checkpoint(bundle, str(tmp_path / "m.ckpt"))
    leftovers = [f for f in tmp_path.iterdir() if f.name.startswith(".ckpt-")]
    assert leftovers == []


@pytest.mark.parametrize("kind", sorted(BUNDLES))
def test_layout_matches_golden_digest(tmp_path, kind):
    p = tmp_path / "m.ckpt"
    save_checkpoint(BUNDLES[kind](), str(p))
    assert hashlib.sha256(p.read_bytes()).hexdigest() == GOLDEN_SHA256[kind]


def _rewrite(tmp_path, kind, edit_meta, edit_body) -> str:
    """Saves the `kind` bundle, applies the edits to its parsed metadata
    and to its payload bytes, and writes the result back with a
    matching metadata length."""
    p = str(tmp_path / "m.ckpt")
    save_checkpoint(BUNDLES[kind](), p)
    raw = open(p, "rb").read()
    (meta_len,) = struct.unpack("<I", raw[12:16])
    blob = json.dumps(edit_meta(json.loads(raw[16:16 + meta_len])))
    body = edit_body(bytearray(raw[16 + meta_len:]))
    bad = str(tmp_path / "bad.ckpt")
    open(bad, "wb").write(raw[:12] + struct.pack("<I", len(blob))
                          + blob.encode("utf-8") + bytes(body))
    return bad


def _nan_in_payload(body):
    body[4:8] = np.array([np.nan], dtype="<f4").tobytes()
    return body


def _keep(x):
    return x


def _activations(name, stored):
    """A metadata edit that records `stored` as the MLP `name`'s
    activations."""
    def edit(meta):
        mlps = meta["mlps"]
        return {**meta, "mlps": {**mlps, name: {**mlps[name],
                                                "activations": stored}}}
    return edit


@pytest.mark.parametrize("kind, edit_meta, edit_body", [
    ("unisid", lambda m: {k: v for k, v in m.items() if k != "mlps"}, _keep),
    ("unisid", lambda m: {**m, "vocab": 5}, _keep),
    ("unisid", lambda m: [m], _keep),
    ("unisid", _keep, _nan_in_payload),
    ("unisid", lambda m: {**m, "config": {**m["config"], "d_e": 7}}, _keep),
    ("rqvae", lambda m: {**m, "beta": -0.25}, _keep),
    # every hidden layer is ReLU: a hidden identity loaded silently once
    ("unisid", _activations("encoder", ["identity", "identity"]), _keep),
    ("unisid", _activations("encoder", ["relu", "relu", "identity"]), _keep),
    ("rqvae", _activations("decoder", ["identity"]), _keep),
], ids=["mlps_missing", "vocab_not_a_list", "metadata_a_list",
        "nan_in_payload", "d_e_mismatch", "negative_beta", "hidden_identity",
        "activations_too_long", "activations_too_short"])
def test_malformed_checkpoint_rejected(tmp_path, kind, edit_meta, edit_body):
    with pytest.raises(CheckpointCorruptionError):
        load_checkpoint(_rewrite(tmp_path, kind, edit_meta, edit_body))
