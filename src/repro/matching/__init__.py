"""Graph-matching substrate (stand-in for the paper's LEMON dependency)."""

from repro.matching.blossom import (
    matching_pairs,
    matching_weight,
    max_weight_matching,
    solve_matching,
)

__all__ = [
    "matching_pairs",
    "matching_weight",
    "max_weight_matching",
    "solve_matching",
]
