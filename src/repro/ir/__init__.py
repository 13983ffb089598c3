"""Kernel IR: the representation of OpenMP target regions.

The IR captures parallel loop nests with affine array accesses — the program
class the paper's decision framework targets — and is the single source from
which the CPU-parallel plan, the GPU SIMT plan, static features, IPDA stride
expressions and MCA lowerings are all derived.
"""

from .types import DType, f32, f64, i32, i64
from .nodes import (
    Array,
    Bin,
    Cmp,
    ConstV,
    If,
    IterVar,
    Load,
    LocalAssign,
    LocalDef,
    LocalRef,
    Loop,
    Param,
    ReduceStore,
    ScalarArg,
    Select,
    Stmt,
    Store,
    Un,
    VExpr,
)
from .region import (
    Region,
    absv,
    cmp,
    evaluate_transfer_bytes,
    expv,
    maxv,
    minv,
    select,
    sqrt,
)
from .dataflow import (
    ArrayDataflow,
    Direction,
    RegionDataflow,
    analyze_transfers,
)
from .printer import region_to_text
from .validate import ValidationError, validate_region
from .visit import (
    MemoryAccess,
    count_reductions,
    memory_accesses,
    walk_statements,
)
from .._lazy import lazy_exports

#: loaded on first use: no analysis, model or simulator parses IR text
_LAZY = {"parser": ("ParseError", "parse_index", "parse_region")}

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    _LAZY,
    eager=(
        "DType",
        "f32",
        "f64",
        "i32",
        "i64",
        "Array",
        "Bin",
        "Cmp",
        "ConstV",
        "If",
        "IterVar",
        "Load",
        "LocalAssign",
        "LocalDef",
        "LocalRef",
        "Loop",
        "Param",
        "ReduceStore",
        "ScalarArg",
        "Select",
        "Stmt",
        "Store",
        "Un",
        "VExpr",
        "Region",
        "ArrayDataflow",
        "Direction",
        "RegionDataflow",
        "analyze_transfers",
        "evaluate_transfer_bytes",
        "absv",
        "cmp",
        "expv",
        "maxv",
        "minv",
        "select",
        "sqrt",
        "region_to_text",
        "ValidationError",
        "validate_region",
        "MemoryAccess",
        "count_reductions",
        "memory_accesses",
        "walk_statements",
    ),
)
