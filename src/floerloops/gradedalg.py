"""Exact graded Z-linear algebra: generators and sparse chains.

Grading is cohomological throughout; chain-level (homological) data is stored
with negated degree.  Coefficients are arbitrary-precision integers, and a
sign change of a basis element is a coefficient: there is no other sign
mechanism.

All values are immutable after construction; every operation is pure.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Hashable


def sign_pow(exponent: int) -> int:
    """(-1)**exponent for arbitrary integer exponents."""
    return -1 if exponent & 1 else 1


@dataclass(frozen=True)
class Generator:
    """A graded basis element; `gid` is an opaque hashable identifier."""

    gid: Hashable
    degree: int


class Chain:
    """A finite Z-linear combination of generators in canonical form.

    Canonical form stores no zero coefficients.  Instances are immutable by
    convention; all arithmetic returns fresh chains.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Generator, int] | None = None):
        self._terms = {gen: coeff for gen, coeff in terms.items() if coeff} if terms else {}

    @classmethod
    def zero(cls) -> "Chain":
        return _ZERO

    @classmethod
    def of(cls, gen: Generator, coeff: int = 1) -> "Chain":
        return cls({gen: coeff})

    @classmethod
    def from_sums(cls, acc: dict[Generator, int]) -> "Chain":
        """The chain of a dict that `accumulate` summed from chains' items:
        its coefficients are nonzero, so it is adopted as it is, without
        canonicalising it again."""
        res = cls.__new__(cls)
        res._terms = acc
        return res

    @property
    def terms(self) -> dict[Generator, int]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "Chain") -> "Chain":
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for gen, coeff in other._terms.items():
            new = out.get(gen, 0) + coeff
            if new:
                out[gen] = new
            else:
                out.pop(gen, None)
        res = Chain.__new__(Chain)
        res._terms = out
        return res

    def __neg__(self) -> "Chain":
        res = Chain.__new__(Chain)
        res._terms = {g: -c for g, c in self._terms.items()}
        return res

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def scale(self, scalar: int) -> "Chain":
        if scalar == 0:
            return _ZERO
        if scalar == 1:
            return self
        res = Chain.__new__(Chain)
        res._terms = {g: scalar * c for g, c in self._terms.items()}
        return res

    def __rmul__(self, scalar: int) -> "Chain":
        return self.scale(scalar)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Chain) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __len__(self) -> int:
        return len(self._terms)

    def degree(self) -> int | None:
        """Common degree of the terms; None for the zero chain.

        Raises if the chain is inhomogeneous.
        """
        degs = {g.degree for g in self._terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous chain with degrees {sorted(degs)}")
        return degs.pop()

    def sorted_items(self) -> list[tuple[Generator, int]]:
        return sorted(self._terms.items(), key=lambda kv: repr(kv[0].gid))

    def __repr__(self):
        if not self._terms:
            return "Chain(0)"
        parts = [f"{c}*{g.gid}" for g, c in self.sorted_items()]
        return "Chain(" + " + ".join(parts) + ")"


_ZERO = Chain()


def accumulate(acc: dict, terms: Iterable[tuple[Hashable, int]], scale: int) -> None:
    """acc += scale * terms, dropping coefficients that cancel to zero.

    `terms` are (key, coeff) pairs: a Chain's `items()`, or terms on
    interned keys.  Summing many chains into one dict and building a Chain
    once at the end avoids the copy that each `Chain + Chain` makes."""
    for key, coeff in terms:
        new = acc.get(key, 0) + scale * coeff
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)
