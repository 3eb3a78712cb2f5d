"""The exception policy of the package.

Malformed or out-of-range input raises the built-in ``ValueError`` (the
CLI exits 3). A fit or numerical method that cannot return a number it can
defend raises ``NumericalError`` (the CLI exits 4, as for any other
``ArithmeticError``).
"""


class NumericalError(ArithmeticError):
    """A fit is degenerate, ambiguous or unconverged, or a computation lost
    the accuracy its result needs."""
