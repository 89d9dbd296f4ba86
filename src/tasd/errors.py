"""Exception types shared across the package."""


class TasdError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(TasdError):
    """Operand shapes are inconsistent."""


class NonFiniteEntry(TasdError):
    """A matrix contains NaN or Inf."""


class NotCompliant(TasdError):
    """Matrix violates the sparsity pattern it is being encoded against."""


class CorruptIndices(TasdError):
    """Compressed block indices are out of range or not strictly increasing."""


class BadMagic(TasdError):
    """File does not start with a recognized matrix format."""


class BadHeader(TasdError):
    """Matrix file header or payload is malformed or truncated."""


class DegenerateProduct(TasdError):
    """A ratio's reference is zero: a reference product with zero Frobenius
    norm (relative error undefined) or a dense EDP of zero."""


class OracleFailure(TasdError):
    """A quality oracle failed to produce a usable score."""


class MissingCalibration(TasdError):
    """A layer needs calibration data that was not provided."""


class EmptyCalibration(TasdError):
    """Activation selection was given no calibration samples for a layer."""


class SchemaError(TasdError):
    """A manifest or config file does not match its schema."""


class MixedM(TasdError):
    """Hardware-facing operation got a series mixing different block sizes."""


class NotExpressible(TasdError):
    """Configuration cannot be executed by the given hardware description."""
