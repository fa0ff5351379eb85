"""Exception types shared across the package."""


class ArgudynError(Exception):
    """Base class for all argudyn errors."""


class CapExceeded(ArgudynError):
    """An exhaustive search was requested on a framework larger than the cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(
            f"framework has {size} arguments, exceeding the enumeration cap {cap}; "
            f"the cap must be at least the argument count"
        )
        self.size = size
        self.cap = cap


class InvalidCap(ArgudynError, ValueError):
    """The enumeration cap setting is not a nonnegative integer.

    Also a ValueError, so callers that catch bad values as such still do."""


class UnsupportedSemantics(ArgudynError):
    """The requested semantics is outside the supported set for this operation."""


class InvalidArity(ArgudynError):
    """A parameter k is below the minimum required by the construction."""


class NotAnExtension(ArgudynError):
    """A set claimed to be an extension fails the membership check."""


class OddK(ArgudynError):
    """The construction requires an even parameter k."""


class UnboundVariable(ArgudynError):
    """A formula was evaluated with a free variable left unassigned."""


class FormulaTooDeep(ArgudynError):
    """A formula nests deeper than the interpreter's recursion limit."""

    def __init__(self):
        super().__init__(
            "formula nests deeper than the interpreter's recursion limit"
        )


class NotThreeCnfTwo(ArgudynError):
    """A CNF formula violates the 3-occurrence/2-per-literal shape."""


class ParseError(ArgudynError):
    """Syntax error in an input file; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UndeclaredArgument(ParseError):
    """An attack endpoint was never declared as an argument."""


class DuplicateArgument(ParseError):
    """An argument was declared more than once."""


class IoError(ArgudynError):
    """Wraps an OS-level failure while reading or writing a file."""
