"""Static program analyses and the Program Attribute Database.

The "static features" half of the hybrid framework (Figure 2): instruction
loadout under the paper's trip-count/branch abstractions, and the database
that carries symbolic analysis products from compile time to run time.
"""

from .tripcount import (
    PAPER_BRANCH_PROBABILITY,
    PAPER_LOOP_TRIPS,
    TripPlan,
    hybrid_trips,
    nest_trips,
    paper_trip_abstraction,
    runtime_trips,
)
from .features import (
    AccessWeight,
    InstructionLoadout,
    LoadoutPlan,
    extract_loadout,
)
from .attribute_db import (
    BoundAttributes,
    ProgramAttributeDatabase,
    RegionAttributes,
)

__all__ = [
    "PAPER_BRANCH_PROBABILITY",
    "PAPER_LOOP_TRIPS",
    "TripPlan",
    "hybrid_trips",
    "nest_trips",
    "paper_trip_abstraction",
    "runtime_trips",
    "AccessWeight",
    "InstructionLoadout",
    "LoadoutPlan",
    "extract_loadout",
    "BoundAttributes",
    "ProgramAttributeDatabase",
    "RegionAttributes",
]
