"""Conservative sign analysis of symbolic expressions.

The lint passes (:mod:`repro.lint`) need to answer questions like "is this
index expression provably negative?" or "is this stride provably nonzero?"
while array extents are still symbolic.  Region parameters are extents and
trip counts, so the analysis assumes every free symbol is a *positive*
integer — the same convention the paper's runtime binding step enforces
before a kernel launch.

The lattice is deliberately small: a query either resolves to a definite
sign class or to :attr:`Sign.UNKNOWN`, and every rule errs toward UNKNOWN.
"""

from __future__ import annotations

from enum import Enum

from .expr import Add, Const, Expr, FloorDiv, Max, Min, Mod, Mul, Sym

__all__ = ["Sign", "sign_of", "definitely_negative"]


class Sign(Enum):
    """Provable sign class of an expression under positive-symbol semantics."""

    NEGATIVE = "negative"  # < 0 for every positive binding
    NONPOSITIVE = "nonpositive"  # <= 0
    ZERO = "zero"  # == 0
    NONNEGATIVE = "nonnegative"  # >= 0
    POSITIVE = "positive"  # > 0
    UNKNOWN = "unknown"

    @property
    def is_nonnegative(self) -> bool:
        return self in (Sign.ZERO, Sign.NONNEGATIVE, Sign.POSITIVE)

    @property
    def is_nonpositive(self) -> bool:
        return self in (Sign.ZERO, Sign.NONPOSITIVE, Sign.NEGATIVE)

    @property
    def is_nonzero(self) -> bool:
        return self in (Sign.NEGATIVE, Sign.POSITIVE)


def _sign_of_const(value: float) -> Sign:
    if value > 0:
        return Sign.POSITIVE
    if value < 0:
        return Sign.NEGATIVE
    return Sign.ZERO


def _add_signs(a: Sign, b: Sign) -> Sign:
    if Sign.UNKNOWN in (a, b):
        return Sign.UNKNOWN
    if a is Sign.ZERO:
        return b
    if b is Sign.ZERO:
        return a
    if a.is_nonnegative and b.is_nonnegative:
        if Sign.POSITIVE in (a, b):
            return Sign.POSITIVE
        return Sign.NONNEGATIVE
    if a.is_nonpositive and b.is_nonpositive:
        if Sign.NEGATIVE in (a, b):
            return Sign.NEGATIVE
        return Sign.NONPOSITIVE
    return Sign.UNKNOWN  # mixed signs: magnitude decides, we cannot


def _mul_signs(a: Sign, b: Sign) -> Sign:
    if Sign.ZERO in (a, b):
        return Sign.ZERO
    if Sign.UNKNOWN in (a, b):
        return Sign.UNKNOWN
    flipped = (a in (Sign.NEGATIVE, Sign.NONPOSITIVE)) != (
        b in (Sign.NEGATIVE, Sign.NONPOSITIVE)
    )
    strict = a.is_nonzero and b.is_nonzero
    if strict:
        return Sign.NEGATIVE if flipped else Sign.POSITIVE
    return Sign.NONPOSITIVE if flipped else Sign.NONNEGATIVE


def sign_of(expr: Expr) -> Sign:
    """The provable sign of ``expr``, with all free symbols assumed positive.

    Returns :attr:`Sign.UNKNOWN` whenever the answer depends on symbol
    magnitudes (e.g. ``n - 1`` can be zero or positive).
    """
    if isinstance(expr, Const):
        return _sign_of_const(expr.value)
    if isinstance(expr, Sym):
        return Sign.POSITIVE
    if isinstance(expr, Add):
        out = Sign.ZERO
        for term in expr.terms:
            out = _add_signs(out, sign_of(term))
            if out is Sign.UNKNOWN:
                return Sign.UNKNOWN
        return out
    if isinstance(expr, Mul):
        out = Sign.POSITIVE
        for factor in expr.factors:
            out = _mul_signs(out, sign_of(factor))
            if out is Sign.UNKNOWN:
                return Sign.UNKNOWN
        return out
    if isinstance(expr, FloorDiv):
        num, den = sign_of(expr.lhs), sign_of(expr.rhs)
        if num.is_nonnegative and den is Sign.POSITIVE:
            return Sign.NONNEGATIVE
        return Sign.UNKNOWN
    if isinstance(expr, Mod):
        if sign_of(expr.rhs) is Sign.POSITIVE:
            return Sign.NONNEGATIVE  # Python % with a positive modulus
        return Sign.UNKNOWN
    if isinstance(expr, Min):
        a, b = sign_of(expr.lhs), sign_of(expr.rhs)
        if a.is_nonnegative and b.is_nonnegative:
            return Sign.POSITIVE if a is b is Sign.POSITIVE else Sign.NONNEGATIVE
        if a is Sign.NEGATIVE or b is Sign.NEGATIVE:
            return Sign.NEGATIVE if Sign.UNKNOWN not in (a, b) else Sign.UNKNOWN
        return Sign.UNKNOWN
    if isinstance(expr, Max):
        a, b = sign_of(expr.lhs), sign_of(expr.rhs)
        if a is Sign.POSITIVE or b is Sign.POSITIVE:
            return Sign.POSITIVE
        if a.is_nonnegative or b.is_nonnegative:
            return Sign.NONNEGATIVE
        if a.is_nonpositive and b.is_nonpositive:
            return Sign.NEGATIVE if a is b is Sign.NEGATIVE else Sign.NONPOSITIVE
        return Sign.UNKNOWN
    return Sign.UNKNOWN


def definitely_negative(expr: Expr) -> bool:
    """True only when ``expr`` < 0 for every positive symbol binding."""
    return sign_of(expr) is Sign.NEGATIVE
