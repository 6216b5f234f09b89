"""Exception types shared across the package."""


class GincomplexError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(GincomplexError):
    """A run configuration value is invalid."""


class RingMismatchError(ConfigurationError):
    """Operands live in different rings (modulus or variable count)."""


class ZeroPolynomialError(GincomplexError, ValueError):
    """An operation that needs a nonzero polynomial received zero."""


class ParseError(GincomplexError, ValueError):
    """Ideal-file syntax or semantic error, with source location."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class UnstableGinError(GincomplexError):
    """The trial budget ran out before enough consecutive trials agreed.

    Carries every divergent trial as (seed, sorted generator strings) so the
    caller can report them verbatim.
    """

    def __init__(self, message, trials=()):
        self.trials = tuple(trials)
        super().__init__(message)


class NonBorelGinError(GincomplexError):
    """A stabilized initial ideal is not Borel-fixed.

    This signals a bad prime or unlucky coordinates; rerun with a different
    prime or seed base instead of trusting the result.
    """


class InvariantError(GincomplexError, ValueError):
    """Numeric invariants are inconsistent.

    Surface invariants (e.g. a negative node count), a stabilized gin whose
    Hilbert function differs from the ideal's, a Hilbert function that a
    Groebner run's leading monomials contradict, or a partial elimination
    stratum that its strict extraction does not generate.
    """


class ExceptionalCaseError(GincomplexError, ValueError):
    """A closed-form family formula does not apply at this parameter."""
