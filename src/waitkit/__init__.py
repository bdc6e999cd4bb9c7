"""Wait-k simultaneous translation at desk scale.

Three encoder variants over a shared from-scratch autodiff core: the
per-step recompute baseline, the cache-friendly causal encoder with an
averaged-embedding bridge, and a full-sentence teacher used for
hidden-state distillation during joint training. Both models encode with
one `encode` and name their own parameters; every error a run reports
derives from WaitkitError, which carries the command line's exit code.
"""

from . import tensor
from .bench import BenchResult, bench_forward, scaling_sweep
from .checkpoint import load_models, save_models
from .errors import (
    CheckpointError,
    ConfigError,
    IngestionError,
    LengthError,
    NumericalError,
    ScheduleError,
    WaitkitError,
)
from .evaluation import (
    EvalReport,
    corpus_bleu,
    evaluate_model,
    hidden_distance_stats,
    k_matrix,
    present_absent_split,
)
from .tensor import Tape, Tensor, no_grad
from .training import (
    Adam,
    ParallelExample,
    SyntheticTaskSpec,
    TrainConfig,
    Vocabulary,
    generate_synthetic,
    load_corpus,
    synthetic_vocab,
    total_loss,
    train,
    train_step,
)
from .transformer import (
    IncrementalModel,
    ModelConfig,
    StreamingEncoder,
    TeacherModel,
    average_embedding_bridge,
    encode_waitk_recompute,
)
from .waitk import (
    DecodeTrace,
    average_lagging,
    read_counts,
    streaming_decode,
)

__version__ = "0.1.0"
