"""Shared exception types."""


class DimensionError(ValueError):
    """Operands have incompatible or unexpected shapes."""


class NumericalError(RuntimeError):
    """A numerical routine failed (non-convergence, singular system, ...)."""


class DegenerateGramError(NumericalError):
    """Every Gram eigenvalue fell at or below the rcond cutoff."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


class CsvFormatError(ConfigError):
    """A CSV file violated the expected format.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}: "
        if line is not None:
            prefix += f"line {line}: "
        super().__init__(prefix + message)


# What stops a run instead of failing one seed: a bad setting, or an input
# file that is missing, unreadable or malformed.
INPUT_FAULTS = (ConfigError, OSError)
