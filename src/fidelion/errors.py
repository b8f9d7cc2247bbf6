"""Exception hierarchy shared across the package."""


class FidelionError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitianError(FidelionError):
    """Matrix violates the Hermitian symmetry tolerance."""


class NoConvergenceError(FidelionError):
    """Eigenvalue iteration failed to converge."""


class SizeOverflowError(FidelionError):
    """Matrix dimension exceeds the supported maximum (64)."""


class DimensionMismatchError(FidelionError):
    """Operands have incompatible dimensions."""


class NotPSDError(FidelionError):
    """Matrix has an eigenvalue below the positivity tolerance."""


class InvalidAlphaError(FidelionError):
    """Entropy order must be finite and satisfy alpha > 0, alpha != 1."""


class SupportViolationError(FidelionError):
    """State has weight outside the reference state's support."""


class UnsupportedDimensionError(FidelionError):
    """Local dimension outside the supported range."""


class InvalidParameterError(FidelionError, ValueError):
    """Parameter or input value outside its admissible range (also a
    ``ValueError``, the builtin class for a bad value)."""


class UnsupportedFamilyError(FidelionError):
    """Unknown channel family or class tag."""


class NonMonotoneError(FidelionError):
    """Classification verdicts are not monotone in the channel parameter."""


class ParseError(FidelionError):
    """Malformed state or channel file."""
