"""Exception hierarchy shared by all modules.

Input/validation problems and numerical failures are kept in separate
branches so the CLI can map them to distinct exit codes.
"""

from __future__ import annotations


class BimonetaryError(Exception):
    """Base class for every error raised by this package."""


class InputError(BimonetaryError):
    """Malformed user input: files, schemas, names, shapes."""


class NumericalError(BimonetaryError):
    """Estimation or optimization failure on structurally valid input."""


# -- panel ------------------------------------------------------------------

class MissingColumn(InputError):
    def __init__(self, name: str):
        super().__init__(f"required column {name!r} is missing")
        self.name = name


class DuplicateColumn(InputError):
    """A header names ``Date`` or a loaded column more than once."""

    def __init__(self, name: str):
        super().__init__(f"column {name!r} appears more than once in the header")
        self.name = name


class UnparseableValue(InputError):
    def __init__(self, row: int, column: str, text: str):
        super().__init__(f"row {row}, column {column!r}: cannot parse {text!r}")
        self.row = row
        self.column = column
        self.text = text


class MalformedRecord(InputError):
    """A CSV record the ``csv`` module cannot split (a field over its size
    limit, as an open quote makes) or with a non-empty cell past the header."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: malformed CSV record: {reason}")
        self.row = row


class DuplicateDate(InputError):
    def __init__(self, date):
        super().__init__(f"duplicate date {date.isoformat()}")
        self.date = date


class LeadingOrTrailingGap(InputError):
    """Interpolation requires present values at both ends of the series."""


class SeriesTooShort(InputError):
    pass


class DegenerateRange(NumericalError):
    """Min-max rescaling of a constant series is undefined."""


# -- category ---------------------------------------------------------------

class IncompatibleEndpoints(InputError):
    pass


class UnknownVariable(InputError):
    def __init__(self, name: str):
        super().__init__(f"unknown variable {name!r}")
        self.name = name


class DivisionByZero(NumericalError):
    def __init__(self, date, context: str):
        super().__init__(f"division by zero at {date} while evaluating {context}")
        self.date = date


class NonFiniteValue(NumericalError):
    """A morphism's value overflowed where every column it reads is present,
    or two values that a check compares differ by more than a float holds."""

    def __init__(self, date, context: str):
        super().__init__(f"non-finite value at {date} while evaluating {context}")
        self.date = date


class UnmappedObject(InputError):
    pass


class UnmappedMorphism(InputError):
    pass


# -- regression / econometrics ----------------------------------------------

class RankDeficient(NumericalError):
    """Collinear regressors: relative pivot below threshold in QR."""


class NonFiniteFactor(NumericalError):
    """A QR factor holds an infinity or NaN: finite data overflowed."""


class InsufficientRows(InputError):
    pass


class InsufficientObservations(InputError):
    pass


class SingularMomentMatrix(NumericalError):
    pass


class NonPositiveDefiniteSigma(NumericalError):
    pass


class ShapeMismatch(InputError):
    pass


class ConstantColumn(NumericalError):
    def __init__(self, name: str):
        super().__init__(f"column {name!r} is constant")
        self.name = name


class AllZeroWeights(NumericalError):
    """Every mean rolling correlation is zero or undefined."""


# -- optimization -----------------------------------------------------------

class NonFiniteObjective(NumericalError):
    pass


class EmptyResult(InputError):
    pass
