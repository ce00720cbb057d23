"""Exception types shared across the package."""


class AlgebroidsError(Exception):
    """Base class for every error raised by this package."""


class OddSquare(AlgebroidsError):
    """An odd variable appears with exponent greater than one."""


class ExponentOverflow(AlgebroidsError):
    """A monomial exponent does not fit the bit field its packed key gives it."""


class ChartMismatch(AlgebroidsError):
    """Operands live on different charts."""


class DegreeMismatch(AlgebroidsError):
    """A substituted polynomial is not homogeneous of the variable's degree."""


class NotSplit(AlgebroidsError):
    """Chart lacks the base/fiber partition required by the operation."""


class NotPoisson(AlgebroidsError):
    """The given bivector does not Schouten-commute with itself."""


class NotLieAlgebra(AlgebroidsError):
    """Structure constants violate the Jacobi identity."""


class NotTriangular(AlgebroidsError):
    """The classical element r does not satisfy [r, r] = 0."""


class TruncationIncomplete(AlgebroidsError):
    """A morphism table is missing a word required below the weight cap."""


class DegreeError(AlgebroidsError):
    """Degree bookkeeping of a declaration is inconsistent.

    `entry` is the key of the anchor or bracket entry at fault, if any, and
    `line` the spec-file line it was declared on."""

    def __init__(self, message, entry=None, line=None):
        self.message = message
        self.entry = entry
        self.line = line
        where = f" at line {line}" if line is not None else ""
        super().__init__(f"{message}{where}")


class UndeclaredVariable(AlgebroidsError):
    """An expression references a variable missing from its chart."""

    def __init__(self, name, line=None, col=None):
        self.name = name
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(f"undeclared variable '{name}'{where}")


class ParseError(AlgebroidsError):
    """Input text violates the expression or spec-file grammar."""

    def __init__(self, message, line=None, col=None, expected=None):
        self.line = line
        self.col = col
        self.expected = tuple(expected) if expected else ()
        if line is None:
            where = ""
        elif col is None:
            where = f" at line {line}"
        else:
            where = f" at {line}:{col}"
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message}{where}{hint}")


class MissingSection(AlgebroidsError):
    """The spec file lacks a section required by the subcommand."""
