"""Exception hierarchy shared across the toolkit.

Every error raised on a malformed input carries enough context to locate
the problem (layer index, byte offset, line number) without a debugger.
"""


class BnnVerifyError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatchError(BnnVerifyError):
    """Tensor shape does not match what a layer or network expects."""

    def __init__(self, message, layer_index=None, expected=None, actual=None):
        if layer_index is not None:
            message = f"layer {layer_index}: {message}"
        if expected is not None or actual is not None:
            message += f" (expected {expected}, actual {actual})"
        super().__init__(message)
        self.layer_index = layer_index
        self.expected = expected
        self.actual = actual


class InvalidModelError(BnnVerifyError):
    """Model violates a structural invariant (non-binary weights, negative
    variance, inconsistent layer chain)."""


class ModelFormatError(BnnVerifyError):
    """Model bytes cannot be decoded.  ``byte_offset`` points at the
    offending position when the wire layer knows it."""

    def __init__(self, message, byte_offset=None):
        if byte_offset is not None:
            message = f"{message} (at byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class UnsupportedOpError(ModelFormatError):
    """Model contains an operator outside the supported subset."""

    def __init__(self, op_type):
        super().__init__(f"unsupported operator {op_type!r}")
        self.op_type = op_type


class PropertyFormatError(BnnVerifyError):
    """Robustness-property text cannot be parsed."""


class WitnessFormatError(BnnVerifyError):
    """Witness text cannot be parsed or has the wrong arity."""


class PpmFormatError(BnnVerifyError):
    """PPM image bytes cannot be decoded."""


class EngineDeclinedError(BnnVerifyError, ValueError):
    """The engine declines an instance it cannot search, such as a grid
    past its budget or a box with no integer point.

    Neither the input nor the engine is at fault: callers report
    ``unknown``, with this error as the reason.
    """


class EnumerationBudgetError(EngineDeclinedError):
    """Exhaustive enumeration would exceed the configured point budget.

    Deliberately distinct from an ``unknown`` verdict: the caller asked for
    ground truth and the engine refuses to guess.
    """

    def __init__(self, points, budget):
        super().__init__(
            f"enumeration of {points} grid points exceeds budget of {budget}"
        )
        self.points = points
        self.budget = budget


class EncodingError(BnnVerifyError):
    """Network cannot be exported to CNF (unfixed first layer, layer pattern
    outside the foldable subset)."""
