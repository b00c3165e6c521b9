"""Exact-arithmetic engine for chain-level loop-space algebra on the
cylinder: graded chains, A-infinity categories, twisted complexes, stratified
moduli sign rules, and a combinatorial wrapped Fukaya model of T*S^1 with its
comparison functor to loops on the circle.
"""

from .gradedalg import Chain, Generator
from .report import CheckReport

__all__ = [
    "Chain",
    "CheckReport",
    "Generator",
]

__version__ = "0.1.0"
