"""Branched covers of the line by branch-cycle tuples: exact
reducibility and component genuses of fiber products, Nielsen-class
enumeration, braid action, coalescing, and genus-growth screening."""

from .permcore import (
    CycleType,
    Permutation,
    dominates,
    identity,
    parse_cycles,
)
from .permgroup import (
    BlockSystem,
    CapExceededError,
    GeneratedGroup,
)
from .cover import (
    Cover,
    InvalidCoverError,
    ValidityReport,
    genus_from_tuple,
    multipliers,
)
from .fiberprod import (
    Component,
    CoverPair,
    PairedCover,
    RamPoint,
    ScreenReport,
    character_entanglement,
    pair_covers_over_common_points,
    screen_g1,
)
from .nielsen import (
    EquivalenceMode,
    NielsenClassSpec,
    NielsenElement,
    braid_apply,
    braid_orbits,
    canonical_form,
    coalesce,
    enumerate_class,
    h3_structure,
    paired_enumerate,
)
from . import catalog

__version__ = "1.0.0"

__all__ = [
    "BlockSystem",
    "CapExceededError",
    "Component",
    "Cover",
    "CoverPair",
    "CycleType",
    "EquivalenceMode",
    "GeneratedGroup",
    "InvalidCoverError",
    "NielsenClassSpec",
    "NielsenElement",
    "PairedCover",
    "Permutation",
    "RamPoint",
    "ScreenReport",
    "ValidityReport",
    "braid_apply",
    "braid_orbits",
    "canonical_form",
    "catalog",
    "character_entanglement",
    "coalesce",
    "dominates",
    "enumerate_class",
    "genus_from_tuple",
    "h3_structure",
    "identity",
    "multipliers",
    "pair_covers_over_common_points",
    "paired_enumerate",
    "parse_cycles",
    "screen_g1",
]
