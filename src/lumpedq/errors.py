"""Exception hierarchy.

Two families matter for the CLI exit codes: ValidationError (bad input,
exit code 2) and NumericalError (well-formed input that the numerics
cannot handle, exit code 3).
"""


class LumpedQError(Exception):
    """Base class for all package errors."""


class ValidationError(LumpedQError):
    """Input is malformed or violates a declared invariant."""


class NumericalError(LumpedQError):
    """Computation failed on otherwise well-formed input."""


# --- circuit network errors -------------------------------------------------

class UnknownDatum(ValidationError):
    pass


class UnknownNode(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class MalformedMatrix(ValidationError):
    pass


class MalformedPartition(ValidationError):
    pass


class DependentJunctionLoop(ValidationError):
    """Junction flux difference vectors are linearly dependent (flux loop)."""


class NonNullDirection(NumericalError):
    """A requested elimination direction is not in the relevant kernel."""


class SingularCouplerBlock(NumericalError):
    """The coupler block to be inverted during elimination is singular."""


class IllConditionedMatrix(NumericalError):
    pass


# --- line / subsystem errors ------------------------------------------------

class InvalidTarget(ValidationError):
    """Length calibration target has no positive solution."""


class TruncationNotConverged(NumericalError):
    pass


# --- composite errors -------------------------------------------------------

class DimensionOverflow(NumericalError):
    """Tensor-product dimension exceeds the configured cap, or its eigensolve
    would not fit in the available memory."""


class UnlabeledState(NumericalError):
    """A dressed state required for an observable could not be labeled."""


class TargetOutOfRange(NumericalError):
    """Calibration target is not bracketed by the endpoint responses."""


# --- io errors ----------------------------------------------------------------

class ParseError(ValidationError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class AsymmetryError(ValidationError):
    pass


class ConfigError(ValidationError):
    pass
