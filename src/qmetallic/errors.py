"""Exception types shared across the package."""

from __future__ import annotations


class QMetallicError(Exception):
    """Base class for every error raised by this package."""


class BadTable(QMetallicError, ValueError):
    """A coefficient table has the wrong length or breaks the series prefix."""


class ZeroSeries(QMetallicError):
    """A series that is identically zero up to its order cannot be inverted."""


class InsufficientOrder(QMetallicError):
    """The input series is not known to enough terms for the requested output."""


class BadConstantTerm(QMetallicError):
    """Square root requires valuation 0 and constant term 1."""


class NonIntegralCoefficient(QMetallicError):
    """A coefficient expected to be an integer came out non-integral."""


class NoStabilization(QMetallicError):
    """Convergents did not stabilize within the iteration cap."""


class BranchMismatch(QMetallicError):
    """Neither square-root branch of the discriminant matches the series."""


class NonExactDivision(QMetallicError):
    """A recurrence step required a division that is not exact over the integers."""


class NonIntegralResult(QMetallicError):
    """A closed-form sum of rationals failed to collapse to an integer."""


class BudgetExceeded(QMetallicError):
    """Brute-force enumeration requested beyond its size budget."""


class NoConvergence(QMetallicError):
    """Root iteration failed to reach the target residual within the cap."""


class MultipleRoot(QMetallicError):
    """Residue computation hit a (numerically) multiple root."""


class BranchCut(QMetallicError):
    """A square-root factor of a singular constant could not be kept off
    its branch cut."""


class ImaginaryResidual(QMetallicError):
    """A quantity that must be real retained a non-negligible imaginary part."""


class NotMonomialDenominator(QMetallicError):
    """Conjugate-coefficient comparison needs a monomial denominator polynomial."""


class CacheCorrupt(QMetallicError):
    """A cache file failed its integrity or invariant checks."""
