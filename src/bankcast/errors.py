"""Exception types shared across the package.

Each class carries the process exit code and the message prefix that the CLI
reports it with, so new error conditions should reuse one of the existing
classes where possible.
"""


class BankcastError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 1
    label = "error"


class ConfigError(BankcastError):
    """Invalid or inconsistent configuration."""
    exit_code = 2
    label = "config error"


class DataError(BankcastError):
    """Missing, malformed, or out-of-contract data."""
    exit_code = 3
    label = "data error"


class DivergenceError(BankcastError):
    """Training produced non-finite values."""
    exit_code = 4
    label = "numeric divergence"


class VersionMismatchError(BankcastError):
    """Persisted artifacts disagree about the parameters that produced them."""
    exit_code = 5
    label = "artifact version mismatch"


class DegenerateEmbedding(BankcastError):
    """A vector with (near-)zero norm reached a normalization step."""


class NondeterministicLoss(BankcastError):
    """Two forward passes of a supposedly deterministic loss disagreed."""
