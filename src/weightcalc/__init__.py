"""Exact combinatorics of tame-weight parameter tuples and the graded
module structures attached to them.

Subpackages and modules:

- weights: parameter tuples, membership tests, shifts and involutions
- characters: difference exponents modulo p**f - 1 and collision scans
- monomial: monomial ideals in the y_j z_j = 0 quotient ring
- cycles: characteristic cycle vectors and multiplicity bookkeeping
- homology: commutative and noncommutative homological engines
- repmodel: lattice states, split and filtration models
- cli: command line entry point and the JSON verification report
"""

from weightcalc.weights import (
    LambdaTuple,
    Params,
    TTag,
    enumerate_d,
    enumerate_dss,
    enumerate_p,
    enumerate_pss,
    j_set,
    t_type,
)

__version__ = "0.1.0"

__all__ = [
    "LambdaTuple",
    "Params",
    "TTag",
    "enumerate_d",
    "enumerate_dss",
    "enumerate_p",
    "enumerate_pss",
    "j_set",
    "t_type",
    "__version__",
]
