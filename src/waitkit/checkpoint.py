"""Checkpoint serialization.

Layout: a UTF-8 text header terminated by an `end_header` line, followed by
the raw little-endian float64 parameter payload. The header carries a
version tag, config key=value lines, both vocabularies, one `param` line
per block (name and shape, in payload order), and, last, a sha256 checksum
of the header lines before it and the payload: an edited config value or
two swapped `param` lines of one shape fail it. Each `param` line must name
a parameter of the teacher/student pair. Round-trips are bit-exact.
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
VERSION = 2


class _Undrawn(np.random.Generator):
    """Gives the models load_models builds their parameter arrays without
    drawing the initial values that the payload overwrites (the models'
    only draws are uniform ones; np.random.default_rng passes a Generator
    through)."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.empty(size)


def _named(teacher, student):
    return {**teacher.named_parameters("teacher."),
            **student.named_parameters("student.")}


def save_models(path, teacher, student, src_vocab, tgt_vocab, meta=None):
    """Write a teacher/student pair: config, vocabularies and every named
    float64 parameter block."""
    blocks, param_lines = [], []
    for name, tensor in _named(teacher, student).items():
        blocks.append(np.ascontiguousarray(tensor.values, dtype="<f8"))
        dims = " ".join(str(d) for d in blocks[-1].shape) or "0"
        param_lines.append(f"param {name} {dims}")

    lines = [f"{MAGIC} v{VERSION}"]
    for fields in (dataclasses.asdict(student.cfg), meta or {}):
        lines += [f"{key}={value}" for key, value in fields.items()]
    lines += ["vocab_src=" + " ".join(src_vocab.tokens),
              "vocab_tgt=" + " ".join(tgt_vocab.tokens), *param_lines]
    header = ("\n".join(lines) + "\n").encode("utf-8")
    # The payload is hashed and written block by block, never copied whole.
    sha = hashlib.sha256(header)
    for block in blocks:
        sha.update(block)
    with open(path, "wb") as fh:
        fh.write(header + f"checksum={sha.hexdigest()}\nend_header\n"
                 .encode("utf-8"))
        for block in blocks:
            fh.write(block)


def load_models(path):
    """Rebuild the (teacher, student) pair saved by save_models; each
    block is read into the parameter its param line names, which must be
    one of the pair's.

    Returns (teacher, student, src_vocab, tgt_vocab, meta dict).
    """
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
    view = memoryview(blob)     # its slices are views, not copies
    payload = view[cut + len(marker):]
    if not header or not header[0].startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic line")
    version = header[0].split("v")[-1]
    if version != str(VERSION):
        raise CheckpointError(f"{path}: unsupported version {version}")

    fields = {}
    params = []
    for line in header[1:-1]:
        if line.startswith("param "):
            _, *parts = line.split()
            shape = tuple(_int(path, d) for d in parts[1:])
            if not shape or min(shape) < 0:
                raise CheckpointError(f"{path}: bad param line {line!r}")
            params.append((parts[0], shape))
        elif "=" in line:
            key, value = line.split("=", 1)
            fields[key] = value
        else:
            raise CheckpointError(f"{path}: unparseable header line {line!r}")
    if not header[-1].startswith("checksum="):
        raise CheckpointError(f"{path}: missing checksum line")
    # The bytes of every header line before the checksum line.
    sha = hashlib.sha256(view[:blob.rfind(b"\n", 0, cut) + 1])
    sha.update(payload)
    if sha.hexdigest() != header[-1].split("=", 1)[1]:
        raise CheckpointError(f"{path}: checksum mismatch")

    sizes = {f.name: _int(path, fields.pop(f.name))
             for f in dataclasses.fields(ModelConfig) if f.name in fields}
    try:
        cfg = ModelConfig(**sizes)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    vocabs = []
    for key, size in (("vocab_src", cfg.src_vocab),
                      ("vocab_tgt", cfg.tgt_vocab)):
        if key not in fields:
            raise CheckpointError(f"{path}: missing {key} line")
        vocabs.append(Vocabulary(fields.pop(key).split()))
        if len(vocabs[-1]) != size:
            raise CheckpointError(f"{path}: {key} holds {len(vocabs[-1])} "
                                  f"tokens, the model {size}")
    undrawn = _Undrawn(np.random.PCG64(0))
    teacher = TeacherModel(cfg, seed=undrawn)
    student = IncrementalModel(cfg, seed=undrawn)
    named = _named(teacher, student)
    offset = 0
    for name, shape in params:
        if name not in named:
            raise CheckpointError(
                f"{path}: unknown or repeated parameter {name}")
        values = named.pop(name).values
        if shape != values.shape:
            raise CheckpointError(
                f"{path}: {name} has shape {shape}, expected {values.shape}")
        count = math.prod(shape)
        if offset + 8 * count > len(payload):
            raise CheckpointError(f"{path}: payload too short for {name}")
        values[...] = np.frombuffer(
            payload, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += 8 * count
    if named:
        raise CheckpointError(f"{path}: missing parameter {next(iter(named))}")
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} trailing bytes")
    return teacher, student, *vocabs, fields


def _int(path, text):
    try:
        return int(text)
    except ValueError:
        raise CheckpointError(
            f"{path}: header value {text!r} is not an integer") from None
