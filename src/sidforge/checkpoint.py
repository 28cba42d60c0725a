"""Binary checkpoint format shared by all model kinds.

Layout: magic "SIDF", u32 format version, u32 kind tag, u32 metadata
length, UTF-8 JSON metadata (dims, array shapes, vocabulary, config
digest), then the kind's parts in `LAYOUT` order, every array as
little-endian float32.  MLP parameters round-trip bit-exactly, because
training keeps them on the float32 grid.  RQ-KMeans and RQ-VAE codebooks
are float64 and are rounded to float32 on save; every CLI stage after
training reads the models back from the file, so all of them see the
rounded codebooks.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import asdict, dataclass
from operator import attrgetter

import numpy as np

from .errors import (CheckpointCorruptionError, CheckpointFormatError,
                     SidforgeError)
from .numkit import MlpParams
from .rq import Codebook, RqVaeModel
from .summarizer import ReconPipeline, SummaryVocab
from .unisid import UniSidConfig, UniSidModel

MAGIC = b"SIDF"
VERSION = 1
KIND_TAGS = {"unisid": 1, "rqkmeans": 2, "rqvae": 3}
TAG_KINDS = {v: k for k, v in KIND_TAGS.items()}


def _dim(value) -> int:
    if type(value) is not int or value <= 0:
        raise CheckpointCorruptionError(f"bad dimension {value!r}")
    return value


def _config_meta(model: UniSidModel) -> dict:
    return {**asdict(model.config), "feature_dim": model.encoder.in_dim}


def _unisid_model(meta: dict, parts: dict) -> UniSidModel:
    config = UniSidConfig(**{f: _dim(meta["config"][f])
                             for f in ("L", "K", "d_h", "d_e")})
    return UniSidModel(encoder=parts["encoder"], sid_head=parts["sid_head"],
                       emb_head=parts["emb_head"], config=config)


@dataclass
class UniSidBundle:
    model: UniSidModel
    pipeline: ReconPipeline
    digest: str = ""

    def meta(self) -> dict:
        return {"config": _config_meta(self.model), "d_r": self.pipeline.d_r,
                "vocab": self.pipeline.vocab.tokens}

    @classmethod
    def from_parts(cls, meta: dict, parts: dict, digest: str):
        tokens = meta["vocab"]
        if not (isinstance(tokens, list)
                and all(isinstance(t, str) for t in tokens)):
            raise CheckpointCorruptionError("vocab is not a list of strings")
        vocab = SummaryVocab(tokens=tokens,
                             index={t: i for i, t in enumerate(tokens)})
        return cls(model=_unisid_model(meta, parts), digest=digest,
                   pipeline=ReconPipeline(recon_head=parts["recon_head"],
                                          decoder=parts["decoder"],
                                          vocab=vocab, d_r=_dim(meta["d_r"])))


@dataclass
class RqKmeansBundle:
    embed_model: UniSidModel  # source of the fixed embeddings
    codebook: Codebook
    digest: str = ""

    def meta(self) -> dict:
        return {"config": _config_meta(self.embed_model)}

    @classmethod
    def from_parts(cls, meta: dict, parts: dict, digest: str):
        return cls(embed_model=_unisid_model(meta, parts),
                   codebook=parts["codebook"], digest=digest)


@dataclass
class RqVaeBundle:
    model: RqVaeModel
    digest: str = ""

    def meta(self) -> dict:
        return {"beta": self.model.beta}

    @classmethod
    def from_parts(cls, meta: dict, parts: dict, digest: str):
        if type(meta["beta"]) not in (int, float) or not meta["beta"] >= 0:
            raise CheckpointCorruptionError(f"bad beta {meta['beta']!r}")
        return cls(model=RqVaeModel(encoder=parts["encoder"],
                                    decoder=parts["decoder"],
                                    codebook=parts["codebook"],
                                    beta=meta["beta"]), digest=digest)


# Each kind's bundle type and its parts in payload order, as attribute
# paths into the bundle; a part is named by its last path component.  An
# MLP part stores its layers in meta["mlps"][name], the (L, K, d)
# codebook its shape in meta["codebook_shape"].
LAYOUT = {
    "unisid": (UniSidBundle, ("model.encoder", "model.sid_head",
                              "model.emb_head", "pipeline.recon_head",
                              "pipeline.decoder")),
    "rqkmeans": (RqKmeansBundle, ("embed_model.encoder",
                                  "embed_model.sid_head",
                                  "embed_model.emb_head", "codebook")),
    "rqvae": (RqVaeBundle, ("model.encoder", "model.decoder",
                            "model.codebook")),
}


def _name(where: str) -> str:
    return where.rsplit(".", 1)[-1]


def _part_shapes(meta: dict, name: str) -> list[tuple[int, ...]]:
    """Shapes of the arrays one named part stores, in payload order."""
    if name == "codebook":
        return [tuple(_dim(d) for d in meta["codebook_shape"])]
    shapes = []
    for din, dout in meta["mlps"][name]["shapes"]:
        shapes += [(_dim(din), _dim(dout)), (_dim(dout),)]
    return shapes


def save_checkpoint(bundle, path: str) -> None:
    """Atomic write (temp file + rename)."""
    kind = next((k for k, (cls, _) in LAYOUT.items()
                 if isinstance(bundle, cls)), None)
    if kind is None:
        raise CheckpointFormatError(f"unknown bundle type {type(bundle)!r}")
    meta = {**bundle.meta(), "digest": bundle.digest, "mlps": {}}
    arrays = []
    for where in LAYOUT[kind][1]:
        part = attrgetter(where)(bundle)
        if isinstance(part, Codebook):
            meta["codebook_shape"] = list(part.levels.shape)
            arrays.append(part.levels)
        else:
            meta["mlps"][_name(where)] = {
                "shapes": [list(w.shape) for w in part.weights],
                "activations": part.activations}
            arrays += part.flat()
    blob = json.dumps(meta, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    header = MAGIC + struct.pack("<III", VERSION, KIND_TAGS[kind], len(blob))
    body = b"".join(np.asarray(a, dtype="<f4").tobytes() for a in arrays)
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(header + blob + body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str):
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16:
        raise CheckpointCorruptionError("file too short for a header")
    if raw[:4] != MAGIC:
        raise CheckpointFormatError(f"bad magic {raw[:4]!r}")
    version, tag, meta_len = struct.unpack("<III", raw[4:16])
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported version {version}")
    if tag not in TAG_KINDS:
        raise CheckpointFormatError(f"unknown model kind tag {tag}")
    kind = TAG_KINDS[tag]
    if len(raw) < 16 + meta_len:
        raise CheckpointCorruptionError("truncated metadata")
    try:
        meta = json.loads(raw[16:16 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointCorruptionError(f"unreadable metadata: {e}") from e
    if not isinstance(meta, dict):
        raise CheckpointCorruptionError("metadata is not a JSON object")
    cls, paths = LAYOUT[kind]
    try:
        shapes = {_name(w): _part_shapes(meta, _name(w)) for w in paths}
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointCorruptionError(
            f"malformed metadata ({type(e).__name__}: {e})") from e
    body = raw[16 + meta_len:]
    sizes = [int(np.prod(s)) for ss in shapes.values() for s in ss]
    expected = 4 * sum(sizes)
    if len(body) != expected:
        raise CheckpointCorruptionError(
            f"payload is {len(body)} bytes, expected {expected}")
    values = np.frombuffer(body, dtype="<f4").astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise CheckpointCorruptionError("non-finite value in the payload")
    flat, parts = iter(np.split(values, np.cumsum(sizes)[:-1])), {}
    try:
        for name, ss in shapes.items():
            arrays = [next(flat).reshape(s) for s in ss]
            if name == "codebook":
                parts[name] = Codebook(levels=arrays[0])
            else:
                mlp = MlpParams(arrays[0::2], arrays[1::2])
                if meta["mlps"][name]["activations"] != mlp.activations:
                    raise ValueError(f"{name} is not ReLU hidden layers "
                                     "with an identity output")
                parts[name] = mlp
        return cls.from_parts(meta, parts, meta.get("digest", ""))
    except (KeyError, TypeError, ValueError, SidforgeError) as e:
        raise CheckpointCorruptionError(
            f"inconsistent metadata ({type(e).__name__}: {e})") from e
