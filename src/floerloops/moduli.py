"""Abstract stratified moduli datasets, boundary-orientation sign rules, and
the inductive fundamental-chain chooser.

A dataset lists compactified moduli cells (dimension <= 2) together with the
signed product decompositions of their codimension-1 boundary strata.  The
chooser picks, by induction on dimension, a formal fundamental chain per
cell whose boundary is the recorded signed sum of products; before choosing
it verifies that the right-hand side is a cycle (the bounding-class
precondition), which is exactly where inconsistent signs surface.

Sign rules.  Strip breaking carries parity |q^i| + |q^k|.  One-input
half-disc families break with parities |x_0| + |q_0| (chord break),
1 + |q_0| + |x| + |q'_1| (break at the outgoing end), and 0 (break at the
incoming end).  Multi-input half-disc families break along the outgoing
segment with

    flat = (d_2 + 1)(|q_0| + |q'_{d_1}| + sum_{i<=d_1} |x_i|) + d_1 + 1

and at an interior disc bubble (inputs k+1 .. k+d_2 of d) with

    sharp = d_2 (|q_0| + sum_{j<=k+d_2} |x_j|) + d_2 (d - k) + k + 1.

The one-input parities and the flat/sharp family differ by a global
orientation flip of the one-input family; each dataset must use one family
consistently, which the chooser enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

from .documents import SCHEMA_VERSION, Document, DocumentError, check
from .gradedalg import Chain, Generator, sign_pow
from .report import CheckReport, failed, passed

STRATUM_RULES = (
    "strip",
    "d1_top",
    "d1_right",
    "d1_left",
    "flat",
    "sharp",
)


class ModuliConsistencyError(ValueError):
    """Boundary data cannot come from oriented compact moduli."""


def boundary_sign_strips(deg_qi: int, deg_qk: int) -> int:
    return sign_pow(deg_qi + deg_qk)


def boundary_sign_half_disc_strata(kind: str, data: Mapping[str, object]) -> int:
    """The boundary-vs-product orientation sign for one half-disc stratum.

    `data` must carry the degree data of the chosen kind: d1_top needs
    deg_x0 and deg_q0; d1_right needs deg_q0, deg_x, deg_q1p; d1_left needs
    nothing; flat needs d1, d2, deg_q0, deg_qmid and deg_xs (the first d1
    input degrees); sharp needs d, d2, k, deg_q0 and deg_xs (the first
    k + d2 input degrees).
    """
    if kind == "d1_top":
        return sign_pow(data["deg_x0"] + data["deg_q0"])
    if kind == "d1_right":
        return sign_pow(1 + data["deg_q0"] + data["deg_x"] + data["deg_q1p"])
    if kind == "d1_left":
        return 1
    if kind == "flat":
        d1, d2 = data["d1"], data["d2"]
        tot = data["deg_q0"] + data["deg_qmid"] + sum(data["deg_xs"])
        return sign_pow((d2 + 1) * tot + d1 + 1)
    if kind == "sharp":
        d, d2, k = data["d"], data["d2"], data["k"]
        tot = data["deg_q0"] + sum(data["deg_xs"])
        return sign_pow(d2 * tot + d2 * (d - k) + k + 1)
    raise ValueError(f"unknown stratum kind {kind!r}")


def stratum_sign(rule: str, data: Mapping[str, object]) -> int:
    if rule == "strip":
        return boundary_sign_strips(data["deg_qi"], data["deg_qk"])
    return boundary_sign_half_disc_strata(rule, data)


@dataclass(frozen=True)
class ModuliCell:
    """One compactified moduli space: id, dimension, and (for rigid cells)
    the signed count of its points."""

    cid: Hashable
    dim: int
    count: int = 1

    def __post_init__(self):
        if not 0 <= self.dim <= 2:
            raise ValueError("cell dimension must be 0, 1 or 2")


@dataclass(frozen=True)
class Stratum:
    """A codimension-1 boundary stratum: a product of two lower cells with a
    sign produced by one of the orientation rules."""

    left: Hashable
    right: Hashable
    sign: int
    rule: str
    data: tuple = ()

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("stratum sign must be +1 or -1")
        if self.rule not in STRATUM_RULES:
            raise ValueError(f"unknown stratum rule {self.rule!r}")


def make_stratum(left, right, rule: str, **data) -> Stratum:
    return Stratum(left, right, stratum_sign(rule, data), rule, tuple(sorted(data.items())))


@dataclass
class StratifiedModuli:
    kind: str  # "strip" | "half_disc" | "disc"
    name: str
    cells: dict[Hashable, ModuliCell]
    boundary: dict[Hashable, tuple[Stratum, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("strip", "half_disc", "disc"):
            raise ValueError(f"unknown moduli kind {self.kind!r}")
        for cid, strata in self.boundary.items():
            cell = self.cells[cid]
            for st in strata:
                left, right = self.cells[st.left], self.cells[st.right]
                if left.dim + right.dim != cell.dim - 1:
                    raise ValueError(
                        f"{self.name}: stratum dims {left.dim}+{right.dim} "
                        f"do not fit boundary of a {cell.dim}-cell"
                    )

    def strata(self, cid) -> tuple[Stratum, ...]:
        return self.boundary.get(cid, ())

    def cells_by_dim(self, dim: int) -> list[ModuliCell]:
        return sorted(
            (c for c in self.cells.values() if c.dim == dim),
            key=lambda c: repr(c.cid),
        )

    def mutated(self, index: int) -> "StratifiedModuli":
        """Copy with the sign of the index-th stratum (in deterministic
        order) flipped; used by corruption tests."""
        flat = [
            (cid, i)
            for cid in sorted(self.boundary, key=repr)
            for i in range(len(self.boundary[cid]))
        ]
        cid, i = flat[index]
        new_boundary = dict(self.boundary)
        strata = list(new_boundary[cid])
        st = strata[i]
        strata[i] = Stratum(st.left, st.right, -st.sign, st.rule, st.data)
        new_boundary[cid] = tuple(strata)
        return StratifiedModuli(self.kind, self.name + "-mut", dict(self.cells), new_boundary)

    def n_strata(self) -> int:
        return sum(len(s) for s in self.boundary.values())


# ---------------------------------------------------------------------------
# Formal chains on a dataset: terms are ordered products of cells.
# ---------------------------------------------------------------------------

def _cell_chain_gen(factors: tuple[tuple[Hashable, int], ...]) -> Generator:
    dim = sum(d for _, d in factors)
    return Generator(("cells", factors), -dim)


def _cross(a: Chain, b: Chain) -> Chain:
    acc: dict[Generator, int] = {}
    for ga, ca in a.items():
        fa = ga.gid[1]
        for gb, cb in b.items():
            gen = _cell_chain_gen(fa + gb.gid[1])
            acc[gen] = acc.get(gen, 0) + ca * cb
    return Chain(acc)


def _splice(factors, i, sub_factors) -> tuple:
    return factors[:i] + sub_factors + factors[i + 1:]


def _formal_boundary(chain: Chain, rhs: Mapping[Hashable, Chain]) -> Chain:
    """Leibniz boundary of a formal product chain, expanding each factor's
    boundary through the already-recorded right-hand sides."""
    acc: dict[Generator, int] = {}
    for gen, coeff in chain.items():
        factors = gen.gid[1]
        offset = 0
        for i, (cid, dim) in enumerate(factors):
            dcell = rhs.get(cid, Chain.zero())
            if not dcell.is_zero():
                sgn = sign_pow(offset)
                for sub, subc in dcell.items():
                    spliced = _cell_chain_gen(_splice(factors, i, sub.gid[1]))
                    acc[spliced] = acc.get(spliced, 0) + sgn * coeff * subc
            offset += dim
    return Chain(acc)


def _stratum_sum(m: StratifiedModuli, cid: Hashable, chains: Mapping[Hashable, Chain]) -> Chain:
    """The signed sum over a cell's boundary strata of the product of their
    factors' chains."""
    rhs = Chain.zero()
    for st in m.strata(cid):
        rhs = rhs + _cross(chains[st.left], chains[st.right]).scale(st.sign)
    return rhs


def _augmentation(chain: Chain) -> int:
    return sum(chain.terms.values())


@dataclass
class FundamentalChain:
    """Chosen fundamental chains and their recorded boundaries, per cell."""

    chains: dict[Hashable, Chain]
    boundaries: dict[Hashable, Chain]


def choose_fundamental_chains(m: StratifiedModuli) -> FundamentalChain:
    """Choose chains by induction on dimension so that each cell's boundary
    equals its signed stratum sum exactly.

    Rigid cells get their signed point count.  For a 1-cell the stratum sum
    must have zero augmentation (a 0-chain on a compact interval family
    bounds iff its total signed count vanishes); for a 2-cell it must be
    closed.  Violations raise ModuliConsistencyError.
    """
    chains: dict[Hashable, Chain] = {}
    boundaries: dict[Hashable, Chain] = {}

    for cell in m.cells_by_dim(0):
        chains[cell.cid] = Chain.of(_cell_chain_gen(((cell.cid, 0),)), cell.count)
        boundaries[cell.cid] = Chain.zero()

    for dim in (1, 2):
        for cell in m.cells_by_dim(dim):
            rhs = _stratum_sum(m, cell.cid, chains)
            if dim == 1:
                if _augmentation(rhs) != 0:
                    raise ModuliConsistencyError(
                        f"{m.name}: stratum sum of 1-cell {cell.cid!r} has "
                        f"augmentation {_augmentation(rhs)}; signs are inconsistent"
                    )
            else:
                closed = _formal_boundary(rhs, boundaries)
                if not closed.is_zero():
                    raise ModuliConsistencyError(
                        f"{m.name}: stratum sum of 2-cell {cell.cid!r} is not "
                        f"closed: {closed!r}"
                    )
            chains[cell.cid] = Chain.of(_cell_chain_gen(((cell.cid, dim),)), 1)
            boundaries[cell.cid] = rhs

    return FundamentalChain(chains, boundaries)


def verify_boundary_consistency(
    m: StratifiedModuli, f: FundamentalChain, name: str | None = None
) -> CheckReport:
    """Re-evaluate every boundary equation and the closedness of its
    right-hand side against the chosen chains."""
    name = name or f"moduli-boundary({m.name})"
    for cell in sorted(m.cells.values(), key=lambda c: (c.dim, repr(c.cid))):
        if cell.cid not in f.chains:
            return failed(name, {"cell": cell.cid, "reason": "no chain chosen"})
        rhs = _stratum_sum(m, cell.cid, f.chains)
        if f.boundaries.get(cell.cid, Chain.zero()) != rhs:
            return failed(name, {"cell": cell.cid, "reason": "recorded boundary mismatch"})
        if cell.dim == 1 and _augmentation(rhs) != 0:
            return failed(
                name,
                {"cell": cell.cid, "reason": f"augmentation {_augmentation(rhs)} != 0"},
            )
        if cell.dim == 2:
            closed = _formal_boundary(rhs, f.boundaries)
            if not closed.is_zero():
                return failed(name, {"cell": cell.cid, "reason": "stratum sum not closed"})
    return passed(name, cells=len(m.cells), strata=m.n_strata())


# ---------------------------------------------------------------------------
# Synthetic datasets for the sign lemmas.
# ---------------------------------------------------------------------------

def synthetic_strip_dataset(variant: str) -> StratifiedModuli:
    """Strip-type datasets modelling broken-trajectory cancellation.

    `chain4`: intersection degrees (2,1,1,0), two broken configurations of a
    1-dimensional family cancelling through a negatively counted strip.
    `tower`: degrees (3,2,1,0) with a 2-dimensional top cell; the middle
    moduli has a cancelling pair of points.  `rigid`: a single rigid strip.
    `pair`: a 1-dimensional family whose ends break through a cancelling
    pair.
    """
    if variant == "chain4":
        degs = {0: 2, 1: 1, 2: 1, 3: 0}
        cells = {
            "H01": ModuliCell("H01", 0, 1),
            "H02": ModuliCell("H02", 0, -1),
            "H13": ModuliCell("H13", 0, 1),
            "H23": ModuliCell("H23", 0, 1),
            "H03": ModuliCell("H03", 1),
        }
        boundary = {
            "H03": (
                make_stratum("H01", "H13", "strip", deg_qi=degs[0], deg_qk=degs[1]),
                make_stratum("H02", "H23", "strip", deg_qi=degs[0], deg_qk=degs[2]),
            ),
        }
        return StratifiedModuli("strip", "strip-chain4", cells, boundary)
    if variant == "tower":
        degs = {0: 3, 1: 2, 2: 1, 3: 0}
        cells = {
            "H01": ModuliCell("H01", 0, 1),
            "H12+": ModuliCell("H12+", 0, 1),
            "H12-": ModuliCell("H12-", 0, -1),
            "H23": ModuliCell("H23", 0, 1),
            "H02": ModuliCell("H02", 1),
            "H13": ModuliCell("H13", 1),
            "H03": ModuliCell("H03", 2),
        }
        boundary = {
            "H02": (
                make_stratum("H01", "H12+", "strip", deg_qi=degs[0], deg_qk=degs[1]),
                make_stratum("H01", "H12-", "strip", deg_qi=degs[0], deg_qk=degs[1]),
            ),
            "H13": (
                make_stratum("H12+", "H23", "strip", deg_qi=degs[1], deg_qk=degs[2]),
                make_stratum("H12-", "H23", "strip", deg_qi=degs[1], deg_qk=degs[2]),
            ),
            "H03": (
                make_stratum("H01", "H13", "strip", deg_qi=degs[0], deg_qk=degs[1]),
                make_stratum("H02", "H23", "strip", deg_qi=degs[0], deg_qk=degs[2]),
            ),
        }
        return StratifiedModuli("strip", "strip-tower", cells, boundary)
    if variant == "rigid":
        return StratifiedModuli(
            "strip", "strip-rigid", {"H01": ModuliCell("H01", 0, 1)}, {}
        )
    if variant == "pair":
        degs = {0: 2, 1: 1, 2: 0}
        cells = {
            "H01+": ModuliCell("H01+", 0, 1),
            "H01-": ModuliCell("H01-", 0, -1),
            "H12": ModuliCell("H12", 0, 1),
            "H02": ModuliCell("H02", 1),
        }
        boundary = {
            "H02": (
                make_stratum("H01+", "H12", "strip", deg_qi=degs[0], deg_qk=degs[1]),
                make_stratum("H01-", "H12", "strip", deg_qi=degs[0], deg_qk=degs[1]),
            ),
        }
        return StratifiedModuli("strip", "strip-pair", cells, boundary)
    raise ValueError(f"unknown strip variant {variant!r}")


def _d1_strata(deg_q0: int) -> dict[str, tuple]:
    """The d=1 stratum kinds of a one-input half-disc family, with |x| = 0,
    each as (left cell, right cell, rule, degree data)."""
    deg_x = 0
    return {
        # H(q0, x0, q1) with |x0| = |x|+1, then the rigid strip
        "top": ("Hx0", "Rstrip", "d1_top", {"deg_x0": deg_x + 1, "deg_q0": deg_q0}),
        # H(q0, x, q1') with |q1'| = 1, then the strip H(q1', q1)
        "right": ("Hq1", "Sq1", "d1_right", {"deg_q0": deg_q0, "deg_x": deg_x, "deg_q1p": 1}),
        # the strip H(q0, q0'), then H(q0', x, q1)
        "left": ("Sq0", "Hq0", "d1_left", {}),
    }


def synthetic_half_disc_d1_dataset(variant: str, deg_q0: int = 1) -> StratifiedModuli:
    """One-input half-disc families of dimension 1 pairing two of the three
    d=1 stratum kinds, with counts balancing the interval ends."""
    if variant not in ("top-right", "top-left", "right-left"):
        raise ValueError(f"unknown d1 variant {variant!r}")
    kinds = _d1_strata(deg_q0)
    strata = tuple(make_stratum(left, right, rule, **data)
                   for left, right, rule, data in map(kinds.get, variant.split("-")))
    cells = {cid: ModuliCell(cid, 0, 1) for st in strata for cid in (st.left, st.right)}
    # the two ends cancel: the second stratum's second cell counts -1 when
    # the two stratum signs agree
    if strata[0].sign == strata[1].sign:
        cells[strata[1].right] = ModuliCell(strata[1].right, 0, -1)
    cells["top"] = ModuliCell("top", 1)
    return StratifiedModuli("half_disc", f"hd1-{variant}-q{deg_q0}", cells, {"top": strata})


def synthetic_half_disc_d2_dataset(
    deg_q0: int = 0, deg_x1: int = 0, deg_x2: int = 0, deg_qd: int = 0,
    disc_count: int | None = None, name: str | None = None,
) -> StratifiedModuli:
    """Two-input half-disc family of dimension 1 whose interval ends are the
    outgoing break (flat) and the interior disc bubble (sharp).  The rigid
    disc R2 counts `disc_count`, by default the sign that makes the boundary
    a cycle; the cylinder's families give it their triangle's sign."""
    dim = 2 - 1 + deg_q0 - deg_qd - deg_x1 - deg_x2
    if dim != 1:
        raise ValueError("degree pattern does not give a 1-dimensional family")
    deg_qmid = deg_q0 - deg_x1
    flat = boundary_sign_half_disc_strata(
        "flat",
        {"d1": 1, "d2": 1, "deg_q0": deg_q0, "deg_qmid": deg_qmid, "deg_xs": (deg_x1,)},
    )
    sharp = boundary_sign_half_disc_strata(
        "sharp",
        {"d": 2, "d2": 2, "k": 0, "deg_q0": deg_q0, "deg_xs": (deg_x1, deg_x2)},
    )
    if disc_count is None:
        disc_count = 1 if flat != sharp else -1
    cells = {
        "Hleft": ModuliCell("Hleft", 0, 1),    # H(q0, x1, q')
        "Hright": ModuliCell("Hright", 0, 1),  # H(q', x2, qd)
        "Hy": ModuliCell("Hy", 0, 1),          # H(q0, y, qd)
        "R2": ModuliCell("R2", 0, disc_count),
        "fam": ModuliCell("fam", 1),
    }
    boundary = {
        "fam": (
            make_stratum(
                "Hleft", "Hright", "flat",
                d1=1, d2=1, deg_q0=deg_q0, deg_qmid=deg_qmid, deg_xs=(deg_x1,),
            ),
            make_stratum(
                "Hy", "R2", "sharp",
                d=2, d2=2, k=0, deg_q0=deg_q0, deg_xs=(deg_x1, deg_x2),
            ),
        ),
    }
    name = name or f"hd2-q{deg_q0}x{deg_x1}{deg_x2}q{deg_qd}"
    return StratifiedModuli("half_disc", name, cells, boundary)


def synthetic_disc_dataset() -> StratifiedModuli:
    """Rigid disc moduli (the right factors of sharp strata)."""
    cells = {
        "R2a": ModuliCell("R2a", 0, 1),
        "R2b": ModuliCell("R2b", 0, -1),
    }
    return StratifiedModuli("disc", "disc-rigid", cells, {})


def synthetic_dataset_battery() -> list[StratifiedModuli]:
    """The standard battery: every stratum kind, degree patterns in {0,1}**2
    where the dimension formulas permit."""
    out = [
        synthetic_strip_dataset("chain4"),
        synthetic_strip_dataset("tower"),
        synthetic_strip_dataset("rigid"),
        synthetic_strip_dataset("pair"),
        synthetic_half_disc_d1_dataset("top-right", deg_q0=1),
        synthetic_half_disc_d1_dataset("top-left", deg_q0=1),
        synthetic_half_disc_d1_dataset("right-left", deg_q0=1),
        synthetic_half_disc_d2_dataset(0, 0, 0, 0),
        synthetic_half_disc_d2_dataset(1, 0, 0, 1),
        synthetic_half_disc_d2_dataset(1, 1, 0, 0),
        synthetic_half_disc_d2_dataset(1, 0, 1, 0),
        synthetic_disc_dataset(),
    ]
    return out


# ---------------------------------------------------------------------------
# JSON schema for hand-authored datasets.
# ---------------------------------------------------------------------------

def moduli_to_json(m: StratifiedModuli) -> dict:
    cells = [
        {"id": str(c.cid), "dim": c.dim, "count": c.count}
        for c in sorted(m.cells.values(), key=lambda c: (c.dim, repr(c.cid)))
    ]
    boundary = []
    for cid in sorted(m.boundary, key=repr):
        for st in m.boundary[cid]:
            boundary.append({
                "cell": str(cid),
                "left": str(st.left),
                "right": str(st.right),
                "sign": st.sign,
                "rule": st.rule,
                "data": [[k, list(v) if isinstance(v, tuple) else v] for k, v in st.data],
            })
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "stratified_moduli",
        "moduli_kind": m.kind,
        "name": m.name,
        "cells": cells,
        "boundary": boundary,
    }


def _datum(value) -> None:
    if type(value) is not list or len(value) != 2 or type(value[0]) is not str:
        raise DocumentError("not a [name, value] pair")


STRATIFIED_MODULI = Document("stratified_moduli", {
    "moduli_kind": str, "name": str,
    "cells": [{"id": str, "dim": int, "count?": int}],
    "boundary": [{"cell": str, "left": str, "right": str, "sign": int, "rule": str,
                  "data?": [_datum]}],
})


def moduli_from_json(data: dict) -> StratifiedModuli:
    check(data, STRATIFIED_MODULI)
    cells = {
        row["id"]: ModuliCell(row["id"], row["dim"], row.get("count", 1))
        for row in data["cells"]
    }
    boundary: dict[Hashable, list[Stratum]] = {}
    for row in data["boundary"]:
        sdata = tuple(
            (k, tuple(v) if isinstance(v, list) else v) for k, v in row.get("data", [])
        )
        boundary.setdefault(row["cell"], []).append(
            Stratum(row["left"], row["right"], row["sign"], row["rule"], sdata)
        )
    return StratifiedModuli(
        data["moduli_kind"], data["name"], cells,
        {k: tuple(v) for k, v in boundary.items()},
    )
