"""Symbolic integer/real expression engine.

This module is the substrate for the Iteration Point Difference Analysis
(IPDA, :mod:`repro.ipda`) and for symbolic loop trip counts.  It implements a
small, immutable expression language sufficient to express the affine (and
mildly non-affine) addressing expressions found in OpenMP parallel loop
nests:

* ``Const`` — a numeric literal,
* ``Sym`` — a named unknown, e.g. the ``[max]`` of the paper's Section IV.C,
  whose value becomes available only at runtime,
* ``Add`` / ``Mul`` — n-ary sums and products kept in a light canonical form,
* ``FloorDiv`` / ``Mod`` — integer division and remainder (used by collapsed
  loop de-linearization),
* ``Min`` / ``Max`` — clamping expressions (used by grid-geometry capping).

Design notes
------------
Expressions are *hash-consed by structure*: equality and hashing are
structural, so expressions can serve as dictionary keys in the Program
Attribute Database.  Construction performs inexpensive local simplification
(constant folding, flattening, identity elimination) so that the difference
expressions built by IPDA collapse to readable forms such as ``[max]`` rather
than ``[max]*1 - [max]*0``.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Union

Number = Union[int, float]

__all__ = [
    "Expr",
    "Const",
    "Sym",
    "Add",
    "Mul",
    "FloorDiv",
    "Mod",
    "Min",
    "Max",
    "as_expr",
    "EvalError",
]


class EvalError(Exception):
    """Raised when an expression cannot be evaluated with the given bindings."""


def as_expr(value: "Expr | Number") -> "Expr":
    """Coerce a Python number (or an existing :class:`Expr`) to an ``Expr``."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):  # guard: bool is an int subclass
        return Const(int(value))
    if isinstance(value, (int, float)):
        return Const(value)
    # duck-typed lift for IR handles (IterVar/Param expose a `.sym` Expr)
    sym = getattr(value, "sym", None)
    if isinstance(sym, Expr):
        return sym
    raise TypeError(f"cannot convert {value!r} to a symbolic expression")


class Expr:
    """Base class of all symbolic expressions.

    Subclasses are immutable; all operators return new expressions.  The
    public algebra is deliberately small — exactly what addressing
    expressions of parallel loop nests require.
    """

    __slots__ = ()

    # -- algebra ---------------------------------------------------------
    def __add__(self, other: "Expr | Number") -> "Expr":
        return Add.make((self, as_expr(other)))

    def __radd__(self, other: "Expr | Number") -> "Expr":
        return Add.make((as_expr(other), self))

    def __sub__(self, other: "Expr | Number") -> "Expr":
        return Add.make((self, Mul.make((Const(-1), as_expr(other)))))

    def __rsub__(self, other: "Expr | Number") -> "Expr":
        return Add.make((as_expr(other), Mul.make((Const(-1), self))))

    def __mul__(self, other: "Expr | Number") -> "Expr":
        return Mul.make((self, as_expr(other)))

    def __rmul__(self, other: "Expr | Number") -> "Expr":
        return Mul.make((as_expr(other), self))

    def __neg__(self) -> "Expr":
        return Mul.make((Const(-1), self))

    def __floordiv__(self, other: "Expr | Number") -> "Expr":
        return FloorDiv.make(self, as_expr(other))

    def __mod__(self, other: "Expr | Number") -> "Expr":
        return Mod.make(self, as_expr(other))

    # -- pickling --------------------------------------------------------
    # Subclasses block __setattr__ to stay immutable, which would also
    # break pickle's slot restoration; restore through object.__setattr__
    # so expressions (and the regions that embed them) survive the
    # process-pool transport used by the parallel sweep engine.
    def __setstate__(self, state) -> None:
        _, slots = state
        for name, value in (slots or {}).items():
            object.__setattr__(self, name, value)

    # -- interface -------------------------------------------------------
    def children(self) -> tuple["Expr", ...]:
        return ()

    def free_symbols(self) -> frozenset[str]:
        """The set of unknown symbol names appearing in this expression."""
        out: set[str] = set()
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Sym):
                out.add(node.name)
            else:
                stack.extend(node.children())
        return frozenset(out)

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        """Numerically evaluate under ``env`` (symbol name → value).

        Raises :class:`EvalError` if a needed symbol is unbound.
        """
        raise NotImplementedError

    def subs(self, env: Mapping[str, "Expr | Number"]) -> "Expr":
        """Substitute symbols by expressions/values; re-simplifies."""
        raise NotImplementedError

    def constant_value(self) -> Number | None:
        """The numeric value if the expression is constant, else ``None``."""
        try:
            return self.evaluate({})
        except EvalError:
            return None

    # subclasses must implement __eq__/__hash__/__repr__


class Const(Expr):
    """A numeric literal."""

    __slots__ = ("value",)

    def __init__(self, value: Number):
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            raise TypeError(f"Const requires a number, got {value!r}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Const is immutable")

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        return self.value

    def subs(self, env: Mapping[str, "Expr | Number"]) -> "Expr":
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Const", self.value))

    def __repr__(self) -> str:
        return repr(self.value)


ZERO = Const(0)
ONE = Const(1)


class Sym(Expr):
    """A named unknown, printed in the paper's ``[name]`` bracket notation."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise TypeError("Sym requires a non-empty string name")
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("Sym is immutable")

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        if env is not None and self.name in env:
            return env[self.name]
        raise EvalError(f"unbound symbol [{self.name}]")

    def subs(self, env: Mapping[str, "Expr | Number"]) -> "Expr":
        if self.name in env:
            return as_expr(env[self.name])
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sym) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Sym", self.name))

    def __repr__(self) -> str:
        return f"[{self.name}]"


def _sort_key(e: Expr) -> tuple:
    # Stable ordering for canonical n-ary node layouts: constants first.
    if isinstance(e, Const):
        return (0, repr(e.value))
    return (1, repr(e))


class Add(Expr):
    """Canonical n-ary sum.  Use :meth:`make` to construct."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("Add is immutable")

    @staticmethod
    def make(terms: Iterable[Expr]) -> Expr:
        flat: list[Expr] = []
        const_acc: Number = 0
        for t in terms:
            t = as_expr(t)
            if isinstance(t, Add):
                inner = list(t.terms)
            else:
                inner = [t]
            for u in inner:
                if isinstance(u, Const):
                    const_acc = const_acc + u.value
                else:
                    flat.append(u)
        # Collect like terms: map non-constant "core" -> coefficient.
        coeffs: dict[Expr, Number] = {}
        order: list[Expr] = []
        for u in flat:
            core, coeff = _split_coeff(u)
            if core not in coeffs:
                coeffs[core] = 0
                order.append(core)
            coeffs[core] = coeffs[core] + coeff
        out: list[Expr] = []
        for core in order:
            c = coeffs[core]
            if c == 0:
                continue
            out.append(core if c == 1 else Mul.make((Const(c), core)))
        if const_acc != 0 or not out:
            out.insert(0, Const(const_acc))
        if len(out) == 1:
            return out[0]
        return Add(tuple(sorted(out, key=_sort_key)))

    def children(self) -> tuple[Expr, ...]:
        return self.terms

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        return sum(t.evaluate(env) for t in self.terms)

    def subs(self, env: Mapping[str, "Expr | Number"]) -> Expr:
        return Add.make(t.subs(env) for t in self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Add) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(("Add", self.terms))

    def __repr__(self) -> str:
        parts = []
        for i, t in enumerate(self.terms):
            s = repr(t)
            if i and not s.startswith("-"):
                parts.append("+")
            parts.append(s)
        return "(" + " ".join(parts) + ")"


def _split_coeff(e: Expr) -> tuple[Expr, Number]:
    """Split ``e`` into (core, numeric coefficient) for like-term collection."""
    if isinstance(e, Mul):
        consts = [f.value for f in e.factors if isinstance(f, Const)]
        rest = tuple(f for f in e.factors if not isinstance(f, Const))
        coeff = math.prod(consts) if consts else 1
        if not rest:
            return ONE, coeff
        core = rest[0] if len(rest) == 1 else Mul(rest)
        return core, coeff
    return e, 1


class Mul(Expr):
    """Canonical n-ary product.  Use :meth:`make` to construct."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, *a):
        raise AttributeError("Mul is immutable")

    @staticmethod
    def make(factors: Iterable[Expr]) -> Expr:
        flat: list[Expr] = []
        const_acc: Number = 1
        for f in factors:
            f = as_expr(f)
            if isinstance(f, Mul):
                inner = list(f.factors)
            else:
                inner = [f]
            for u in inner:
                if isinstance(u, Const):
                    const_acc = const_acc * u.value
                else:
                    flat.append(u)
        if const_acc == 0:
            return ZERO
        # Distribute a product over a single Add factor so that affine
        # decomposition (`N*(i+1)` → `N*i + N`) works without a heavyweight
        # polynomial expansion pass.
        for idx, u in enumerate(flat):
            if isinstance(u, Add):
                others = flat[:idx] + flat[idx + 1 :]
                rest: Expr = Const(const_acc)
                for o in others:
                    rest = Mul._raw(rest, o)
                return Add.make(Mul.make((rest, term)) for term in u.terms)
        out: list[Expr] = sorted(flat, key=_sort_key)
        if const_acc != 1 or not out:
            out.insert(0, Const(const_acc))
        if len(out) == 1:
            return out[0]
        return Mul(tuple(out))

    @staticmethod
    def _raw(a: Expr, b: Expr) -> Expr:
        """Multiply without Add-distribution (internal helper)."""
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value * b.value)
        if isinstance(a, Const) and a.value == 1:
            return b
        if isinstance(b, Const) and b.value == 1:
            return a
        fa = a.factors if isinstance(a, Mul) else (a,)
        fb = b.factors if isinstance(b, Mul) else (b,)
        return Mul(tuple(fa) + tuple(fb))

    def children(self) -> tuple[Expr, ...]:
        return self.factors

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        return math.prod(f.evaluate(env) for f in self.factors)

    def subs(self, env: Mapping[str, "Expr | Number"]) -> Expr:
        return Mul.make(f.subs(env) for f in self.factors)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mul) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(("Mul", self.factors))

    def __repr__(self) -> str:
        return "*".join(
            repr(f) if not isinstance(f, Add) else f"({f!r})" for f in self.factors
        )


class _BinOp(Expr):
    __slots__ = ("lhs", "rhs")
    _symbol = "?"

    def __init__(self, lhs: Expr, rhs: Expr):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.lhs == other.lhs
            and self.rhs == other.rhs
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.lhs, self.rhs))

    def __repr__(self) -> str:
        return f"({self.lhs!r} {self._symbol} {self.rhs!r})"


class FloorDiv(_BinOp):
    """Integer (floor) division."""

    __slots__ = ()
    _symbol = "//"

    @staticmethod
    def make(lhs: Expr, rhs: Expr) -> Expr:
        lhs, rhs = as_expr(lhs), as_expr(rhs)
        if isinstance(rhs, Const):
            if rhs.value == 0:
                raise ZeroDivisionError("symbolic floor division by zero")
            if rhs.value == 1:
                return lhs
            if isinstance(lhs, Const):
                return Const(lhs.value // rhs.value)
        return FloorDiv(lhs, rhs)

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        denom = self.rhs.evaluate(env)
        if denom == 0:
            raise EvalError("floor division by zero")
        return self.lhs.evaluate(env) // denom

    def subs(self, env: Mapping[str, "Expr | Number"]) -> Expr:
        return FloorDiv.make(self.lhs.subs(env), self.rhs.subs(env))


class Mod(_BinOp):
    """Integer modulo."""

    __slots__ = ()
    _symbol = "%"

    @staticmethod
    def make(lhs: Expr, rhs: Expr) -> Expr:
        lhs, rhs = as_expr(lhs), as_expr(rhs)
        if isinstance(rhs, Const):
            if rhs.value == 0:
                raise ZeroDivisionError("symbolic modulo by zero")
            if rhs.value == 1:
                return ZERO
            if isinstance(lhs, Const):
                return Const(lhs.value % rhs.value)
        return Mod(lhs, rhs)

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        denom = self.rhs.evaluate(env)
        if denom == 0:
            raise EvalError("modulo by zero")
        return self.lhs.evaluate(env) % denom

    def subs(self, env: Mapping[str, "Expr | Number"]) -> Expr:
        return Mod.make(self.lhs.subs(env), self.rhs.subs(env))


class Min(_BinOp):
    """Binary minimum."""

    __slots__ = ()
    _symbol = "min"

    @staticmethod
    def make(lhs: Expr, rhs: Expr) -> Expr:
        lhs, rhs = as_expr(lhs), as_expr(rhs)
        if isinstance(lhs, Const) and isinstance(rhs, Const):
            return Const(min(lhs.value, rhs.value))
        if lhs == rhs:
            return lhs
        return Min(lhs, rhs)

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        return min(self.lhs.evaluate(env), self.rhs.evaluate(env))

    def subs(self, env: Mapping[str, "Expr | Number"]) -> Expr:
        return Min.make(self.lhs.subs(env), self.rhs.subs(env))

    def __repr__(self) -> str:
        return f"min({self.lhs!r}, {self.rhs!r})"


class Max(_BinOp):
    """Binary maximum."""

    __slots__ = ()
    _symbol = "max"

    @staticmethod
    def make(lhs: Expr, rhs: Expr) -> Expr:
        lhs, rhs = as_expr(lhs), as_expr(rhs)
        if isinstance(lhs, Const) and isinstance(rhs, Const):
            return Const(max(lhs.value, rhs.value))
        if lhs == rhs:
            return lhs
        return Max(lhs, rhs)

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        return max(self.lhs.evaluate(env), self.rhs.evaluate(env))

    def subs(self, env: Mapping[str, "Expr | Number"]) -> Expr:
        return Max.make(self.lhs.subs(env), self.rhs.subs(env))

    def __repr__(self) -> str:
        return f"max({self.lhs!r}, {self.rhs!r})"
