"""Wait-k simultaneous translation at desk scale.

Three encoder variants over a shared from-scratch autodiff core: the
per-step recompute baseline, the cache-friendly causal encoder with an
averaged-embedding bridge, and a full-sentence teacher used for
hidden-state distillation during joint training. Both models encode with
one `encode` and name their own parameters; every error a run reports
derives from WaitkitError, which carries the command line's exit code.
"""

__version__ = "0.1.0"
