"""Exception hierarchy shared by all ptdrsc modules.

Every error raised by the public API derives from :class:`PtdrscError`,
so callers can catch one base class.  The CLI maps these onto exit
codes: domain/usage problems are distinguished from numerical failures.

The input rules shared by several modules live here too, as the checks
:func:`check_index`, :func:`check_positive` and :func:`check_finite`;
they raise :class:`DomainError` for inf and NaN as for any other bad
value.  They are internal and not re-exported by the package.
"""

import math

__all__ = [
    "PtdrscError",
    "DomainError",
    "PoleError",
    "ParameterPole",
    "ComplexBranch",
    "NumericalError",
    "NoConvergence",
    "Overflow",
    "RealnessViolation",
    "NonIntegrable",
    "NoRoot",
]


class PtdrscError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PtdrscError, ValueError):
    """Input lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation requested at (or too close to) a pole."""


class ParameterPole(DomainError):
    """A series parameter sits on a forbidden non-positive integer."""


class ComplexBranch(DomainError):
    """A real-valued branch was requested where the root is complex."""


class NumericalError(PtdrscError, ArithmeticError):
    """An algorithm failed to reach its accuracy contract."""


class NoConvergence(NumericalError):
    """Neither series nor asymptotic evaluation met tolerance."""


class Overflow(NumericalError, OverflowError):
    """A result exceeds the representable floating-point range."""


class RealnessViolation(NumericalError):
    """A provably real quantity came back with a large imaginary part."""


class NonIntegrable(NumericalError):
    """Adaptive quadrature failed to converge on the supplied integrand."""


class NoRoot(NumericalError):
    """Root bracketing failed: no solution in the attainable range."""


# A float holds every whole number up to 2**53 exactly.
_INDEX_MAX = 2**53


def check_index(value, name: str, least: int = 0) -> int:
    """``value`` as an int, if it is a whole number in [``least``, 2**53].

    A float holds every whole number up to 2**53 exactly; far above it
    ``int()`` of a float and the float arithmetic of the callers would
    raise a bare OverflowError.  The range test comes first, so inf and
    NaN never reach ``int()``.  A plain int skips the float test: the
    level quadratures make hundreds of checked calls.
    """
    if type(value) is int and least <= value <= _INDEX_MAX:
        return value
    if not (least <= value <= _INDEX_MAX and value == int(value)):
        # repr() of an int of more than 4300 digits raises ValueError
        huge = isinstance(value, int) and value > _INDEX_MAX
        got = "an int above 2**53" if huge else repr(value)
        raise DomainError(f"{name} must be an integer in [{least}, 2**53], got {got}")
    return int(value)


def check_positive(value, name: str) -> float:
    """``value`` as a float, if it is finite and > 0."""
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_finite(value, name: str) -> float:
    """``value`` as a float, if it is neither inf nor NaN."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value
