"""Exception types shared across the package."""


class GclError(Exception):
    """Base class for errors raised on bad input or refused work."""


class ParseError(GclError):
    """A context file or expression string could not be parsed.

    ``line`` is 1-based when the source is line-oriented, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapExceeded(GclError):
    """An input is larger than a configured size cap.

    Work is refused outright rather than truncated; the message names the
    offending quantity and the cap it passed.
    """


class NotAGeneralExtent(GclError):
    """An object set is not a union of blocks of the context."""


class InvariantError(GclError):
    """A result contradicts a property the construction guarantees.

    Raised instead of ``assert`` so the check survives ``python -O`` and
    reaches the CLI as a failed law (exit 4) rather than a traceback.
    """
