"""Exception classes shared across the package.

Every error raised by the library derives from :class:`TikhtorusError`, so
callers (and the CLI) can report failures by class name and distinguish them
from genuine bugs.
"""


class TikhtorusError(Exception):
    """Base class for all library errors."""


class DimensionError(TikhtorusError):
    """Lattice or dimension mismatch between operands."""


class ParameterError(TikhtorusError):
    """A numerical parameter violates its documented precondition."""


class InvalidFieldError(TikhtorusError):
    """A spectral field contains non-finite coefficients."""


class NotRealValuedError(TikhtorusError):
    """An operation requiring a real-valued field got one without the
    Hermitian-symmetry flag."""


class TruncationRangeError(TikhtorusError):
    """Requested truncation bandlimit exceeds the field's bandlimit."""


class ConfigError(TikhtorusError):
    """Experiment configuration is missing, malformed, or inconsistent."""


class NumericalError(TikhtorusError):
    """A dense factorization or residual check failed; signals a broken
    positive-definiteness invariant rather than bad user input."""


class CalibrationError(TikhtorusError):
    """Frequency-band calibration could not produce a nonempty band."""


class DomainError(TikhtorusError):
    """Data passed to a fit lies outside the mathematical domain (for
    example nonpositive values on a log axis)."""
