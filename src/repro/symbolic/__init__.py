"""Symbolic expression engine used by IPDA and the attribute database.

Public API::

    from repro.symbolic import Sym, Const, as_expr, decompose_affine

    n = Sym("n")
    stride = n * 1 - n * 0        # simplifies to [n]
    stride.evaluate({"n": 1100})  # -> 1100
"""

from .expr import (
    Add,
    Const,
    EvalError,
    Expr,
    FloorDiv,
    Max,
    Min,
    Mod,
    Mul,
    Sym,
    as_expr,
)
from .affine import AffineForm, NonAffineError, decompose_affine
from .._lazy import lazy_exports

#: loaded on first use: only the lint passes reason about signs
_LAZY = {
    "signs": ("Sign", "definitely_negative", "definitely_nonnegative", "sign_of"),
}

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    _LAZY,
    eager=(
        "Add",
        "Const",
        "EvalError",
        "Expr",
        "FloorDiv",
        "Max",
        "Min",
        "Mod",
        "Mul",
        "Sym",
        "as_expr",
        "AffineForm",
        "NonAffineError",
        "decompose_affine",
    ),
)
