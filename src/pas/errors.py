"""Exception types shared across the package, and the one check of each
input rule: matrices, counts (and seeds), fractions, real numbers and
label vectors."""

import numbers
import sys

import numpy as np


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
    """Malformed input file (bad row, inconsistent arity, bad PASM size)."""


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


def check_matrix(X, name, width=None):
    """X as a float array, checked to be 2-D, `width` columns wide when
    given, and finite.

    Raises DimensionMismatch for a wrong rank or width and NonFinite for
    NaN/Inf, naming the input `name` in the message.  Empty inputs pass:
    each caller rejects them with its own error class.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("%s must be 2-D, got ndim=%d" % (name, X.ndim))
    if width is not None and X.shape[1] != width:
        raise DimensionMismatch("%s has %d columns, expected %d"
                                % (name, X.shape[1], width))
    if not np.isfinite(X).all():
        raise NonFinite("%s contains NaN/Inf" % name)
    return X


def check_count(n, name, error=ConfigError, low=1):
    """n as a plain int >= low; a bool, float, string or NaN raises error."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < low:
        raise error("%s must be >= %d and an integer, got %r" % (name, low, n))
    return int(n)


def check_fraction(x, name, high):
    """x as a plain float in (0, high]; a bool or non-real raises ConfigError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not 0 < x <= high:
        raise ConfigError("%s must be in (0, %g], got %r" % (name, high, x))
    return float(x)


def check_real(x, name, error=ConfigError):
    """x as a plain finite float; a bool, non-real, NaN, Inf or an integer
    beyond the float range raises error.  Each caller checks the sign it
    needs."""
    if (isinstance(x, bool) or not isinstance(x, numbers.Real)
            or not abs(x) <= sys.float_info.max):
        raise error("%s must be a finite real number, got %r" % (name, x))
    return float(x)


def check_labels(labels, rows, name, dtype=None):
    """labels as an array of dtype, of shape exactly (rows,), else
    RangeError; with an integer dtype a value that the cast would change
    (a fraction, NaN or one out of range) is a RangeError too."""
    values = np.asarray(labels)
    if values.shape != (rows,):
        raise RangeError("%s label count does not match %d rows, got shape %r"
                         % (name, rows, values.shape))
    if dtype is None or not np.issubdtype(dtype, np.integer):
        return np.asarray(values, dtype=dtype)
    # a NaN or out-of-range float casts to garbage, which the comparison
    # rejects; a value no cast takes (an int beyond 64 bits) raises
    try:
        with np.errstate(invalid="ignore"):
            labels = values.astype(dtype)
    except (OverflowError, TypeError, ValueError):
        labels = None
    if labels is None or (labels != values).any():
        raise RangeError("%s labels must be integers" % name)
    return labels
