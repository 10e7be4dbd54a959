"""Exception hierarchy shared across the package.

Structural problems (bad shapes, unparseable input) raise; failed *axioms*
do not. Checkers return a Violation record instead so callers can report
the witness without a try/except.
"""

from __future__ import annotations


class PreLieError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(PreLieError):
    """A tensor, matrix or vector has the wrong shape."""


class DimensionMismatch(PreLieError):
    """Two objects that must share a dimension do not."""


class BadBasis(PreLieError):
    """Vectors handed in as a basis are linearly dependent."""


class NotAnIdeal(PreLieError):
    """A subspace is not a two-sided ideal of the ambient algebra."""


class NotACocycle(PreLieError):
    """A cochain that must be closed is not."""


class ArityMismatch(PreLieError):
    """Cochain arities do not line up for the requested operation."""


class TruncationMismatch(PreLieError):
    """Two truncated tree polynomials carry different degree cutoffs."""


class NeedsHigherTruncation(PreLieError):
    """A computation needs tree terms beyond the stored cutoff."""


class InvalidInput(PreLieError):
    """Input to a conversion fails the axioms of its source structure."""


class InvalidExtension(PreLieError):
    """An exact sequence handed to a constructor is not one."""


class OutputCheckFailed(PreLieError):
    """A constructed object failed its own verifier; indicates a bug."""


class InternalAssertionFailed(PreLieError):
    """A property guaranteed by theory failed in the middle of a run."""


class ParseError(PreLieError):
    """A document is not syntactically valid."""


class SchemaError(ParseError):
    """A document parses as JSON but violates the schema.

    Carries a JSON-pointer style path to the offending element.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")
