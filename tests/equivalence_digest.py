"""SHA-256 digests of training, decoding and cost counts, to compare two
source trees bit for bit.

Run once per tree and compare the printed lines:

    PYTHONPATH=<tree>/src python tests/equivalence_digest.py

Each line is a name, a digest and the multiply-accumulates counted while it
ran. It covers the parameters and metric records of 60 joint train() steps
and of 60 + 60 pretrain_fixed_teacher steps, the pushed states and the
streamed and re-used-state logits over the 60 random models of
test_array_mode.py, and the tape entries of train_joint-shaped steps.
Pytest does not collect this file (its name does not start with test_).
"""

import hashlib

import numpy as np

from waitkit import tensor as T
from waitkit.training import (Adam, SyntheticTaskSpec, TrainConfig,
                              generate_synthetic, train, train_step)
from waitkit.transformer import IncrementalModel, ModelConfig, TeacherModel
from waitkit.waitk import WaitKSchedule

from test_array_mode import random_model

TRAIN_CFG = ModelConfig(n_layers=2, d_model=32, n_heads=2, d_ff=64,
                        src_vocab=32, tgt_vocab=32, k=3)


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()

    def array(self, x):
        x = np.ascontiguousarray(x)
        self.sha.update(f"{x.dtype}{x.shape}".encode())
        self.sha.update(x.tobytes())

    def floats(self, values):
        self.sha.update(" ".join(float(v).hex() for v in values).encode())

    def hexdigest(self):
        return self.sha.hexdigest()


def copy_examples(count, seed):
    return generate_synthetic(SyntheticTaskSpec(
        kind="copy", vocab_size=32, min_len=5, max_len=12, seed=seed), count)


def training_digest(mode):
    teacher, student, rows = train(
        copy_examples(256, 0), TRAIN_CFG,
        TrainConfig(max_steps=60, batch_size=16, k=3, mode=mode, seed=0))
    digest = Digest()
    for model in (teacher, student):
        for name, p in model.named_parameters().items():
            digest.sha.update(name.encode())
            digest.array(p.values)
    for row in rows:
        digest.floats(row)
    return digest.hexdigest()


def decode_digest():
    """The loop of test_streamed_and_reused_logits_equal_reference, without
    the reference."""
    digest = Digest()
    for block in range(4):
        rng = np.random.default_rng(100 + block)
        for trial in range(15):
            model, src = random_model(rng, 15 * block + trial)
            k, n = model.cfg.k, len(src)
            stream = model.start_stream()
            states = model.incremental_states(src)
            digest.array(states.z.values)
            digest.array(states.f.values)
            prefix = [1]
            for s in range(1, min(2 * n + 5, 48) + 1):
                g = WaitKSchedule(k, n).read_count(s)
                while stream.count < g:
                    digest.array(stream.push(src[stream.count]))
                digest.array(model.decode_step(prefix, stream.states, g,
                                               k).values)
                logits = model.decode_step(prefix, states, g, k).values
                digest.array(logits)
                prefix.append(int(np.argmax(logits)))
    return digest.hexdigest()


def tape_entries():
    """Tape entries of train_step on the train_joint shape, one batch of
    16 sentences per source length 5, 8 and 12."""
    teacher, student = TeacherModel(TRAIN_CFG, 0), IncrementalModel(
        TRAIN_CFG, 1)
    optimizer = Adam(teacher.parameters() + student.parameters())
    lengths = []
    backward = T.Tape.backward

    def counting(tape, loss):
        lengths.append(len(tape))
        return backward(tape, loss)

    T.Tape.backward = counting
    try:
        for length in (5, 8, 12):
            batch = generate_synthetic(SyntheticTaskSpec(
                kind="copy", vocab_size=32, min_len=length, max_len=length,
                seed=length), 16)
            train_step(teacher, student, batch, optimizer, TrainConfig(k=3))
    finally:
        T.Tape.backward = backward
    return " ".join(map(str, lengths))


def main():
    for name, run in (("train_joint", lambda: training_digest("joint")),
                      ("train_pretrain_fixed_teacher",
                       lambda: training_digest("pretrain_fixed_teacher")),
                      ("decode_suite", decode_digest),
                      ("tape_entries", tape_entries)):
        before = T.mac_counter.count
        result = run()
        print(f"{name} {result} macs={T.mac_counter.count - before}")


if __name__ == "__main__":
    main()
