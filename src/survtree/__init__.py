"""Finite, fuel-bounded combinatorics of branching trees: shape predicates,
alphabet pushforwards, staged adversary oracles, output tries of bounded
width, exact leaf covers, and four deterministic condition-building engines
with verifiable run records."""

from .cover import (
    CoverWitness,
    SizeGuard,
    min_cover,
    verify_cover,
)
from .staged import (
    AdversaryFamily,
    OracleFunctional,
    StagedTree,
    Verdict,
    family_from_config,
    index_pair,
    standard_library,
)
from .traces import BoundExceeded, TraceTable
from .trees import (
    FiniteTree,
    NotInTree,
    ShapeViolation,
    Surjection,
    TriState,
    Word,
    is_accelerating_to_depth,
    is_k_branching_to_depth,
    is_k_tree_to_depth,
    map_path,
    pushforward_preimage,
    subtree_above,
    word_key,
)

__all__ = [
    "AdversaryFamily",
    "BoundExceeded",
    "CoverWitness",
    "FiniteTree",
    "NotInTree",
    "OracleFunctional",
    "ShapeViolation",
    "SizeGuard",
    "StagedTree",
    "Surjection",
    "TraceTable",
    "TriState",
    "Verdict",
    "Word",
    "family_from_config",
    "index_pair",
    "is_accelerating_to_depth",
    "is_k_branching_to_depth",
    "is_k_tree_to_depth",
    "map_path",
    "min_cover",
    "pushforward_preimage",
    "standard_library",
    "subtree_above",
    "verify_cover",
    "word_key",
]
