"""Homological engines.

Two independent toolkits: commutative certification of Cohen-Macaulay
properties via dualized Taylor complexes over the full polynomial
ring, and a noncommutative PBW engine computing minimal graded free
resolutions degree by degree.
"""

from weightcalc.homology.linalg import nullspace_mod, rank_mod
from weightcalc.homology.pbw import PbwElement
from weightcalc.homology.taylor import (
    ExtSummary,
    grade_and_cm,
    shellability_check,
    taylor_ext_ranks,
)
from weightcalc.homology.resolution import (
    BettiTable,
    dual_degree_bound_check,
    expected_factor_table,
    minimal_resolution,
    module_generators,
    resolution_tables,
    tor_grlambda,
)

__all__ = [
    "BettiTable",
    "ExtSummary",
    "PbwElement",
    "dual_degree_bound_check",
    "expected_factor_table",
    "grade_and_cm",
    "minimal_resolution",
    "module_generators",
    "nullspace_mod",
    "rank_mod",
    "resolution_tables",
    "shellability_check",
    "taylor_ext_ranks",
    "tor_grlambda",
]
