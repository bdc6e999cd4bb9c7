"""Errors that bad input or a failed run raises, each with its CLI exit code.

Every class keeps a builtin base, so callers that catch ValueError or
RuntimeError still catch it. tensor.DimensionError and
tensor.GradientError report program bugs and are not mapped to exit codes.
"""


class WaitkitError(Exception):
    """Base of the errors `waitkit` reports as one line and an exit code;
    each subclass sets its exit_code."""

    exit_code: int


class ConfigError(WaitkitError, ValueError):
    """Invalid run configuration."""

    exit_code = 2


class LengthError(WaitkitError, ValueError):
    """Input longer than the configured maximum sequence length."""

    exit_code = 2


class ScheduleError(WaitkitError, ValueError):
    """A step or prefix length outside the schedule's domain."""

    exit_code = 2


class IngestionError(WaitkitError, ValueError):
    """Corpus files cannot be loaded as a parallel dataset."""

    exit_code = 3


class CheckpointError(WaitkitError, ValueError):
    """Malformed or inconsistent checkpoint file."""

    exit_code = 3


class NumericalError(WaitkitError, RuntimeError):
    """A forward pass or training step produced a non-finite quantity."""

    exit_code = 4
