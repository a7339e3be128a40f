"""Exception types shared across the package."""


class PasError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(PasError):
    """Operand feature dimensions or shapes do not agree."""


class NonFinite(PasError):
    """Input contains NaN or Inf."""


class EmptyFit(PasError):
    """No rows available to fit a subspace."""


class EmptyTarget(PasError):
    """Target sample set is empty."""


class ParseError(PasError):
    """Malformed input file (bad row, inconsistent arity, bad magic)."""


class RangeError(PasError):
    """Label out of range, negative, or missing."""


class ConfigError(PasError):
    """Invalid configuration value."""


class DegenerateKernel(PasError):
    """Kernel bandwidth is zero (all points identical)."""


class EmptySelection(PasError):
    """Selected index subset is empty."""


class TooFewSamples(PasError):
    """Requested group fraction selects fewer than one sample."""
