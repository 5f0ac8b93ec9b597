"""Exception hierarchy shared by all modules."""


class ColorIndexError(Exception):
    """Base class for all errors raised by this package."""


class UnknownSymbol(ColorIndexError):
    pass


class ArityMismatch(ColorIndexError):
    pass


class ParseError(ColorIndexError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotAcyclic(ColorIndexError):
    pass


class NotFreeConnex(ColorIndexError):
    pass


class BadGHD(ColorIndexError):
    pass


class MalformedAnswer(ColorIndexError):
    pass


class NotBinarySchema(ColorIndexError):
    pass


class AsymmetricEdgeRelation(ColorIndexError):
    pass


class BudgetExceeded(ColorIndexError):
    pass


class TaskMismatch(ColorIndexError):
    pass
