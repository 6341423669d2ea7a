"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: InputError -> 2, FormatError -> 3,
NumericalError -> 4.
"""


class SbevError(Exception):
    """Base class for all package errors."""


class InputError(SbevError):
    """Invalid argument, malformed record, or violated precondition."""


class FormatError(SbevError):
    """Unparseable or version-mismatched file content."""


class NumericalError(SbevError):
    """Numerical failure (singular matrix, non-finite loss, ...)."""
