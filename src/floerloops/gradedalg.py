"""Exact graded Z-linear algebra: generators, sparse chains, complexes, Koszul signs.

Grading is cohomological throughout; chain-level (homological) data is stored
with negated degree.  A generator carries an orientation token in {+1, -1}:
the generator with token -1 is, as a chain, the negative of the one with
token +1, and chains canonicalise tokens to +1 by folding the sign into the
coefficient.  Coefficients are arbitrary-precision integers.

All values are immutable after construction; every operation is pure.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Hashable

from .report import CheckReport, failed, passed


def sign_pow(exponent: int) -> int:
    """(-1)**exponent for arbitrary integer exponents."""
    return -1 if exponent & 1 else 1


def koszul_sign(left_degrees: Iterable[int], right_degrees: Iterable[int]) -> int:
    """Sign for moving a block of graded factors past another.

    Each element of degree a from the left block moved past an element of
    degree b from the right block contributes (-1)**(a*b); the total is the
    product over all such pairs.
    """
    left_odd = sum(1 for a in left_degrees if a & 1)
    right_odd = sum(1 for b in right_degrees if b & 1)
    return sign_pow(left_odd * right_odd)


@dataclass(frozen=True)
class Generator:
    """A graded basis element with an orientation token.

    `gid` is an opaque hashable identifier.  Two generators differing only in
    the token are negatives of each other as chains.
    """

    gid: Hashable
    degree: int
    orientation: int = 1

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ValueError(f"orientation token must be +1 or -1, got {self.orientation}")

    @property
    def key(self) -> "Generator":
        """The token-(+1) representative used as the canonical chain key."""
        if self.orientation == 1:
            return self
        return Generator(self.gid, self.degree, 1)

    def flipped(self) -> "Generator":
        return Generator(self.gid, self.degree, -self.orientation)


class Chain:
    """A finite Z-linear combination of generators in canonical form.

    Canonical form stores no zero coefficients and only token-(+1)
    generators.  Instances are immutable by convention; all arithmetic
    returns fresh chains.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Generator, int] | None = None):
        canon: dict[Generator, int] = {}
        if terms:
            for gen, coeff in terms.items():
                if coeff == 0:
                    continue
                c = coeff * gen.orientation
                k = gen.key
                new = canon.get(k, 0) + c
                if new:
                    canon[k] = new
                else:
                    canon.pop(k, None)
        self._terms = canon

    @classmethod
    def zero(cls) -> "Chain":
        return _ZERO

    @classmethod
    def of(cls, gen: Generator, coeff: int = 1) -> "Chain":
        return cls({gen: coeff})

    @classmethod
    def from_sums(cls, acc: dict[Generator, int]) -> "Chain":
        """The chain of a dict that `accumulate` summed from chains' items:
        its keys are token-(+1) and its coefficients nonzero, so it is
        adopted as it is, without canonicalising it again."""
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


# ---------------------------------------------------------------------------
# Graded complexes.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedComplex:
    """A complex with a chosen basis and a degree +1 differential on it."""

    basis: tuple[Generator, ...]
    d_table: Mapping[Generator, Chain] = field(default_factory=dict)

    def d(self, chain: Chain) -> Chain:
        table = self.d_table
        acc: dict[Generator, int] = {}
        for gen, coeff in chain.items():
            accumulate(acc, table.get(gen, _ZERO).items(), coeff)
        return Chain.from_sums(acc)

    def d_gen(self, gen: Generator) -> Chain:
        return self.d_table.get(gen.key, Chain.zero()).scale(gen.orientation)


def check_d_squared(complex_: GradedComplex, name: str = "d-squared") -> CheckReport:
    """Pass, or the first basis element g with d(d(g)) != 0 plus the residual."""
    for gen in complex_.basis:
        dd = complex_.d(complex_.d_gen(gen))
        if not dd.is_zero():
            return failed(name, {"generator": gen.gid, "residual": repr(dd)})
        dgen = complex_.d_gen(gen)
        deg = dgen.degree()
        if deg is not None and deg != gen.degree + 1:
            return failed(
                name,
                {"generator": gen.gid, "residual": f"d has degree {deg - gen.degree}"},
            )
    return passed(name, basis_size=len(complex_.basis))
