"""Checkpoint serialization.

Layout: a UTF-8 text header terminated by an `end_header` line, followed by
the raw little-endian float64 parameter payload. The header carries a
version tag, config key=value lines, both vocabularies, one `param` line
per block (name and shape, in payload order), and a sha256 checksum of the
payload. Round-trips are bit-exact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from .errors import CheckpointError
from .training import Vocabulary
from .transformer import IncrementalModel, ModelConfig, TeacherModel

MAGIC = "waitkit-checkpoint"
VERSION = 1


def save_checkpoint(path, model_cfg, src_vocab, tgt_vocab, named_params,
                    meta=None):
    """Write config, vocabularies and named float64 parameter blocks."""
    payload = bytearray()
    param_lines = []
    for name, tensor in named_params.items():
        arr = np.ascontiguousarray(tensor.values, dtype="<f8")
        dims = " ".join(str(d) for d in arr.shape) or "0"
        param_lines.append(f"param {name} {dims}")
        payload += arr.tobytes()
    digest = hashlib.sha256(bytes(payload)).hexdigest()

    lines = [f"{MAGIC} v{VERSION}"]
    for key, value in dataclasses.asdict(model_cfg).items():
        lines.append(f"{key}={value}")
    for key, value in (meta or {}).items():
        lines.append(f"{key}={value}")
    lines.append("vocab_src=" + " ".join(src_vocab.tokens))
    lines.append("vocab_tgt=" + " ".join(tgt_vocab.tokens))
    lines.extend(param_lines)
    lines.append(f"checksum={digest}")
    lines.append("end_header")
    header = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(bytes(payload))


def load_checkpoint(path):
    """Read a checkpoint; returns (config dict, meta dict, src_vocab,
    tgt_vocab, {name: ndarray})."""
    with open(path, "rb") as fh:
        blob = fh.read()
    # A whole line: a vocabulary line may end in the token end_header.
    marker = b"\nend_header\n"
    cut = blob.find(marker)
    if cut < 0:
        raise CheckpointError(f"{path}: missing end_header marker")
    try:
        header = blob[:cut].decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: header is not UTF-8") from None
    payload = blob[cut + len(marker):]
    if not header or not header[0].startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic line")
    version = header[0].split("v")[-1]
    if version != str(VERSION):
        raise CheckpointError(f"{path}: unsupported version {version}")

    fields = {}
    params = []
    checksum = None
    for line in header[1:]:
        if line.startswith("param "):
            _, *parts = line.split()
            shape = tuple(_int(path, d) for d in parts[1:])
            if not shape or min(shape) < 0:
                raise CheckpointError(f"{path}: bad param line {line!r}")
            params.append((parts[0], shape))
        elif line.startswith("checksum="):
            checksum = line.split("=", 1)[1]
        elif "=" in line:
            key, value = line.split("=", 1)
            fields[key] = value
        else:
            raise CheckpointError(f"{path}: unparseable header line {line!r}")
    if checksum is None:
        raise CheckpointError(f"{path}: missing checksum line")
    if hashlib.sha256(payload).hexdigest() != checksum:
        raise CheckpointError(f"{path}: payload checksum mismatch")

    for key in ("vocab_src", "vocab_tgt"):
        if key not in fields:
            raise CheckpointError(f"{path}: missing {key} line")
    vocab_src = Vocabulary(fields.pop("vocab_src").split())
    vocab_tgt = Vocabulary(fields.pop("vocab_tgt").split())
    arrays = {}
    offset = 0
    for name, shape in params:
        count = math.prod(shape)       # Python ints: no overflow
        size = count * 8
        if offset + size > len(payload):
            raise CheckpointError(f"{path}: payload too short for {name}")
        arrays[name] = np.frombuffer(
            payload, dtype="<f8", count=count, offset=offset
        ).reshape(shape).copy()
        offset += size
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} trailing bytes")

    config = {f.name: _int(path, fields.pop(f.name))
              for f in dataclasses.fields(ModelConfig) if f.name in fields}
    return config, fields, vocab_src, vocab_tgt, arrays


def _int(path, text):
    try:
        return int(text)
    except ValueError:
        raise CheckpointError(
            f"{path}: header value {text!r} is not an integer") from None


def save_models(path, teacher, student, src_vocab, tgt_vocab, meta=None):
    """Bundle a trained teacher/student pair into one checkpoint."""
    named = {**teacher.named_parameters("teacher."),
             **student.named_parameters("student.")}
    save_checkpoint(path, student.cfg, src_vocab, tgt_vocab, named, meta)


def load_models(path):
    """Rebuild the (teacher, student) pair saved by save_models.

    Returns (teacher, student, src_vocab, tgt_vocab, meta dict).
    """
    config, meta, vocab_src, vocab_tgt, arrays = load_checkpoint(path)
    try:
        cfg = ModelConfig(**config)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    teacher = TeacherModel(cfg, seed=0)
    student = IncrementalModel(cfg, seed=0)
    named = {**teacher.named_parameters("teacher."),
             **student.named_parameters("student.")}
    for key, tensor in named.items():
        if key not in arrays:
            raise CheckpointError(f"{path}: missing parameter {key}")
        if arrays[key].shape != tensor.values.shape:
            raise CheckpointError(
                f"{path}: {key} has shape {arrays[key].shape}, "
                f"expected {tensor.values.shape}"
            )
        tensor.values[...] = arrays[key]
    return teacher, student, vocab_src, vocab_tgt, meta
