"""Exception hierarchy shared across the package, and the config field check.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4. Everything else is an ordinary bug.
"""


class SimtError(Exception):
    """Base class for all package errors."""


class ShapeError(SimtError):
    """Tensor or matrix dimensions are inconsistent."""


class ContractError(SimtError):
    """An operation was called in a way that violates its contract."""


class ConfigError(SimtError):
    """Invalid experiment or model configuration."""


class DataError(SimtError):
    """Corpus, vocabulary, or alignment problems in input data."""


class NumericError(SimtError):
    """NaN/Inf contamination or optimizer divergence."""


class FormatError(DataError):
    """A binary or text artifact does not match its declared layout."""


def check_field(cfg, name: str, ok: bool, want: str) -> None:
    """Unless ``ok``, raise ``ConfigError``: ``cfg``'s field ``name`` must be ``want``."""
    if not ok:
        raise ConfigError(f"{type(cfg).__name__}.{name} must be {want}, got {getattr(cfg, name)}")
