"""Twisted complexes over a path model viewed as a DG category: shifted
summands, a strictly upper-triangular degree-1 connection solving the
Maurer-Cartan equation, and the induced differential and composition on
morphism matrices.

Shift bookkeeping: an element of underlying degree g in Hom(q^i, q^j),
placed between summands with shifts (m_i, m_j), has degree g + m_j - m_i.
Connection entries must have shifted degree 1.  The shifted composition sign
is (-1)**((deg s2 + 1)(m_1 - m_0)) on the unshifted degree of s2.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .ainfty import (
    CHAIN,
    AInftyCategory,
    KeyedOps,
    chain_from_json,
    chain_to_json,
    check_ainfty,
    composable_paths,
    mu2_shifted,
)
from .documents import SCHEMA_VERSION, Document, check
from .gradedalg import Chain, Generator, accumulate
from .pontryagin import CirclePathModel, PathModel, path_model_category
from .report import CheckReport, failed, passed


@dataclass(frozen=True)
class ShiftedObject:
    """An object of the additive enlargement: a basepoint index and a shift."""

    base: int
    shift: int


class TwistedComplex:
    """Summands with shifts and a strictly upper-triangular connection D.

    D maps (i, j) with i < j to the underlying chain of the entry in
    Hom(q^i[m_i], q^j[m_j]).  Construction checks shape and degrees; the
    Maurer-Cartan equation is checked by `validate_twisted`.
    """

    def __init__(
        self,
        model: PathModel,
        summands: Iterable[ShiftedObject],
        D: Mapping[tuple[int, int], Chain],
        name: str = "T",
    ):
        self.model = model
        self.summands = tuple(summands)
        self.name = name
        self.D: dict[tuple[int, int], Chain] = {}
        n = len(self.summands)
        for (i, j), chain in D.items():
            if chain.is_zero():
                continue
            if not (0 <= i < j < n):
                raise ValueError(f"connection entry ({i},{j}) is not strictly upper-triangular")
            self._check_entry_degree(i, j, chain)
            self.D[(i, j)] = chain

    def _check_entry_degree(self, i: int, j: int, chain: Chain) -> None:
        si, sj = self.summands[i], self.summands[j]
        deg = chain.degree()
        if deg is None:
            return
        if deg + sj.shift - si.shift != 1:
            raise ValueError(
                f"connection entry ({i},{j}) has shifted degree "
                f"{deg + sj.shift - si.shift}, expected 1"
            )
        for gen, _ in chain.items():
            src, tgt = self.model.gen_endpoints(gen)
            if (src, tgt) != (si.base, sj.base):
                raise ValueError(
                    f"entry ({i},{j}) generator {gen.gid} connects points "
                    f"({src},{tgt}), expected ({si.base},{sj.base})"
                )

    def shift_of(self, i: int) -> int:
        return self.summands[i].shift

    def point_of(self, i: int) -> int:
        return self.summands[i].base

    def nsummands(self) -> int:
        return len(self.summands)

    def d_entry(self, i: int, j: int) -> Chain:
        return self.D.get((i, j), Chain.zero())


def validate_twisted(T: TwistedComplex, name: str | None = None) -> CheckReport:
    """Pass iff the Maurer-Cartan equation mu_1(D) + mu_2(D, D) = 0 holds
    entrywise; the witness is the first failing (i, j) with its residual."""
    name = name or f"maurer-cartan({T.name})"
    model = T.model
    n = T.nsummands()
    for i in range(n):
        for j in range(i + 1, n):
            acc: dict[Generator, int] = {}
            accumulate(acc, model.mu1(T.d_entry(i, j)).items(), 1)
            for k in range(i + 1, j):
                mi, mk, mj = T.shift_of(i), T.shift_of(k), T.shift_of(j)
                term = mu2_shifted(model.mu2, T.d_entry(k, j), T.d_entry(i, k), (mi, mk, mj))
                accumulate(acc, term.items(), 1)
            if acc:
                return failed(
                    name, {"entry": (i, j), "residual": repr(Chain.from_sums(acc))}
                )
    return passed(name, summands=n)


# ---------------------------------------------------------------------------
# Morphism matrices.
# ---------------------------------------------------------------------------

MorphismMatrix = dict[tuple[int, int], Chain]


def matrix_add(A: MorphismMatrix, B: MorphismMatrix) -> MorphismMatrix:
    """The entrywise sum, without zero entries."""
    acc: dict[tuple[int, int], dict[Generator, int]] = {}
    for M in (A, B):
        for key, chain in M.items():
            accumulate(acc.setdefault(key, {}), chain.items(), 1)
    return {key: Chain.from_sums(terms) for key, terms in acc.items() if terms}


def matrix_entry_degree(T1: TwistedComplex, T2: TwistedComplex, i1: int, i2: int, g: int) -> int:
    return g + T2.shift_of(i2) - T1.shift_of(i1)


def tw_mu2(
    T1: TwistedComplex, T2: TwistedComplex, T3: TwistedComplex,
    S2: MorphismMatrix, S1: MorphismMatrix,
) -> MorphismMatrix:
    """Matrix product with shifted-composition entries:
    (S2 S1)[i,k] = sum_j mu2_shifted(S2[j,k], S1[i,j])."""
    model = T1.model
    acc: dict[tuple[int, int], dict[Generator, int]] = {}
    for (i, j), s1 in S1.items():
        for (j2, k), s2 in S2.items():
            if j2 != j:
                continue
            shifts = (T1.shift_of(i), T2.shift_of(j), T3.shift_of(k))
            term = mu2_shifted(model.mu2, s2, s1, shifts)
            accumulate(acc.setdefault((i, k), {}), term.items(), 1)
    return {key: Chain.from_sums(terms) for key, terms in acc.items() if terms}


def tw_mu1(T1: TwistedComplex, T2: TwistedComplex, S: MorphismMatrix) -> MorphismMatrix:
    """mu_1 S + mu_2(S, D^1) + mu_2(D^2, S) on a morphism matrix from T1 to T2."""
    out = {key: T1.model.mu1(chain) for key, chain in S.items()}
    out = matrix_add(out, tw_mu2(T1, T1, T2, S, dict(T1.D)))
    return matrix_add(out, tw_mu2(T1, T2, T2, dict(T2.D), S))


# ---------------------------------------------------------------------------
# The DG category of twisted complexes, as an A-infinity category adapter.
# ---------------------------------------------------------------------------

def tw_category(
    model: PathModel,
    complexes: Iterable[TwistedComplex],
    window: int = 1,
    name: str = "Tw",
) -> AInftyCategory:
    """The category with objects the given twisted complexes and morphisms
    the elementary matrices over a windowed basis of the underlying model.

    mu_1 and mu_2 are the twisted operations, so the arity support is
    {1, 2}; on elementary matrices they agree with `tw_mu1`/`tw_mu2`.

    Interned tables.  Everything is built once on integers.  A key packs
    (b, s1, s2): b a key of `path_model_category(model, window)`, whose
    keyed mu gives the base products and differentials from the model's
    hooks, and s1, s2 the global indices of its summands (Ta, i1) and
    (Tb, i2), its block.  Its degree is the base degree plus the block
    shift m_s2 - m_s1.  Blocks (s1, s2) and (s2', s3) compose only when
    s2 == s2', to block (s1, s3) with shift parity p = m_s2 - m_s1 mod 2,
    and the product of (b1, b2) there is the base product times the sign
    (-1)**((|b2| + 1) p) of `mu2_shifted`.  These products are cached per
    (b1, b2, p) and mu_1 rows per key, as (key, coeff) tuples; mu_1 of a
    key is mu_1 of its base plus mu_2 against the connection entries of Ta
    ending at i1 and of Tb starting at i2.  The category is these keys
    (`keyed`); `decode` and `encode` translate them to and from the basis
    generators with gid ("m", name1, i1, name2, i2, base_gid), which
    witnesses name.

    Summand linkage.  Take g1 at summands (i1, i2) of Hom(Ta, Tb) and g2 at
    (j1, j2) of Hom(Tb, Tc).  The d = 2 relation on (g1, g2) is a signed sum
    of mu_1 mu_2(g2, g1), mu_2(g2, mu_1 g1) and mu_2(mu_1 g2, g1).  An
    elementary product is nonzero only if the inner summands agree, so the
    first term needs i2 == j1.  mu_1 g1 has entries at (i1, i2), at (k, i2)
    for (k, i1) in Ta.D, and at (i1, k) for (i2, k) in Tb.D, so the second
    term needs i2 == j1 or (i2, j1) in Tb.D.  Symmetrically mu_1 g2 has
    entries starting at j1 or at k with (k, j1) in Tb.D, so the third term
    needs j1 == i2 or (i2, j1) in Tb.D.  The relation on a pair failing
    "i2 == j1 or (i2, j1) in Tb.D" is therefore zero.  The keyed d = 2
    enumeration visits only the other pairs: for g1 at (i1, i2) and each Tc
    it yields g1 once with the slice of Hom(Tb, Tc) whose first summand j1
    is linked to i2, in increasing j1, which keeps the `composable_tuples`
    order, so the kernel evaluates mu_1 g1 once per slice.  Tuples of other
    lengths are always linked.

    Winding translation.  On the circle's path model (`type(model) is
    CirclePathModel`, exactly: no subclass or wrapper) every hom is the
    group ring Z[t^+-1]: concatenation adds windings with coefficient +1 and
    the differential is zero.  So the twisted mu_1 and mu_2 commute with
    translating each input's winding, mu(t^k1 x1, ..., t^kd xd) =
    t^(k1+...+kd) mu(x1, ..., xd), degrees do not depend on windings, and
    the relation on (t^k1 x1, ..., t^kd xd) is t^(k1+...+kd) times the
    relation on (x1, ..., xd).  It vanishes for every winding in Z iff it
    vanishes at one.  So there `linked_groups` yields only the first key of
    each cell, whose winding is -window: for d = 2 the first input is
    cell[0] and the lasts are every (2 window + 1)-th key of the follow
    slice, since every cell has 2 window + 1 keys.  `KeyedOps.orbit` is
    2 window + 1, and `check_ainfty` reports the translates as
    `certified_by_translation`.  The witness is unchanged: the first
    failing tuple in `composable_tuples` order has every winding at
    -window, because its representative fails too and comes no later, and
    the representatives are walked in that order.  A window wider than 1
    adds no coverage there, since the certificate already covers every
    winding.  Every other model (a `MutatedPathModel`, a table-backed one,
    a subclass) is enumerated at every winding.

    Summand classes.  The d = 2 relation on (g1, g2), g1 at (i1, i2) of
    Hom(Ta, Tb) and g2 at (j1, j2) of Hom(Tb, Tc), reads the first summand
    only through its in-class: its point, its shift and the entries of Ta
    ending at i1, each as (source point, source shift, chain).  It reads
    the last summand only through its out-class, the same with the entries
    of Tc starting at j2, and the middle pair only through its middle
    class: the points and shifts of i2 and j1 and the entry D(i2, j1), or
    none when i2 == j1, since every other entry of Tb meets g1 or g2 in
    products whose inner summands differ, which are zero.  So swapping a
    summand for another of its class, in any complex, relabels the output
    blocks one to one, and the relation vanishes on one member iff on all.
    `linked_groups(2)` yields only the pairs whose first summand, middle
    pair and last summand each come first in their class in summand order
    (complex order, then index); on top of the winding stride, that is
    4,609 of 311,052 tuples on the acceptance input (15 in-, 17 middle and
    16 out-classes).  `KeyedOps.linked` gives the linked tuples they stand
    for, and `check_ainfty` reports those not translates of a visited one
    as `certified_by_relabelling`.  The witness is unchanged: a tuple with
    earlier summands comes earlier in `composable_tuples` order, so the
    first failing tuple is its class's representative.  Names do not count
    here either, as for the duplicate complexes of `check_tw_dg`.

    The limit of both lemmas: they hold for the operations as defined, so
    a fault in the keyed code above that depends on the base index or the
    summand index, not on the model or the complexes, shows only on the
    enumeration of every linked tuple, which the tests build and keep
    running.
    """
    cxs = list(complexes)
    names = tuple(T.name for T in cxs)
    if len(set(names)) != len(names):
        raise ValueError("twisted complexes need distinct names")

    # the base model's keys, products and mu_1 rows
    paths = path_model_category(model, window)
    base = paths.keyed
    base_mu, base_degree = base.mu, base.degree

    # key = (base << 2 * sbits) | (s1 << sbits) | s2 for summand indices s1, s2
    summands = [(T, i) for T in cxs for i in range(T.nsummands())]
    summand_of = {(T.name, i): s for s, (T, i) in enumerate(summands)}
    shifts = [T.shift_of(i) for T, i in summands]
    sbits = len(summands).bit_length()
    bbits = 2 * sbits
    smask = (1 << sbits) - 1
    first_mask = smask << sbits
    bmask = (1 << bbits) - 1

    def block(n1, i1, n2, i2) -> int:
        return (summand_of[(n1, i1)] << sbits) | summand_of[(n2, i2)]

    # cells[(Ta, Tb)][i1][i2]: the keys of Hom(Ta, Tb) at summands (i1, i2)
    cells = {
        (Ta.name, Tb.name): [
            [
                tuple((b << bbits) | block(Ta.name, i1, Tb.name, i2)
                      for b in paths.hom_keys[(Ta.point_of(i1), Tb.point_of(i2))])
                for i2 in range(Tb.nsummands())
            ]
            for i1 in range(Ta.nsummands())
        ]
        for Ta in cxs for Tb in cxs
    }
    hom_keys = {
        pair: tuple(key for row in rows for cell in row for key in cell)
        for pair, rows in cells.items()
    }

    # summand classes: what the d = 2 relation reads of its first summand,
    # middle pair and last summand; the first of each class represents it
    def side(s: int, incoming: bool) -> tuple:
        T, i = summands[s]
        ends: Counter = Counter()
        for (a, b), chain in T.D.items():
            near, far = (b, a) if incoming else (a, b)
            if near == i:
                ends[(T.point_of(far), T.shift_of(far), chain)] += 1
        return T.point_of(i), T.shift_of(i), frozenset(ends.items())

    def middle_class(pair: tuple) -> tuple:
        T, i2, j1 = pair
        return T.point_of(i2), T.shift_of(i2), T.point_of(j1), T.shift_of(j1), T.D.get((i2, j1))

    in_reps = _firsts(range(len(summands)), lambda s: side(s, True))
    out_reps = _firsts(range(len(summands)), lambda s: side(s, False))
    linked_pairs = [(T, i2, j1) for T in cxs for i2 in range(T.nsummands())
                    for j1 in range(T.nsummands()) if j1 == i2 or (i2, j1) in T.D]
    middle_reps = _firsts(linked_pairs, middle_class)

    # one representative per translation orbit: every stride-th key of a
    # cell, i.e. the first of each cell
    stride = 2 * window + 1 if type(model) is CirclePathModel else 1
    # follow[(Tb, Tc)][i2]: the keys of Hom(Tb, Tc) at (j1, j2), in basis
    # order, with (Tb, i2, j1) a middle and (Tc, j2) an out-representative
    follow = {
        (Tb.name, Tc.name): [
            tuple(key for j1, row in enumerate(cells[(Tb.name, Tc.name)])
                  if (Tb, i2, j1) in middle_reps
                  for j2, cell in enumerate(row) if summand_of[(Tc.name, j2)] in out_reps
                  for key in cell[::stride])
            for i2 in range(Tb.nsummands())
        ]
        for Tb in cxs for Tc in cxs
    }
    # the linked composable pairs, which the d = 2 groups stand for: per
    # linked (Tb, i2, j1), the keys into (Tb, i2) times the keys out of
    # (Tb, j1).  Tuples of other lengths are always linked, and their
    # groups stand for their translation orbits.
    into: Counter = Counter()
    out_of: Counter = Counter()
    for (a, b), rows in cells.items():
        for i1, row in enumerate(rows):
            for i2, cell in enumerate(row):
                into[(b, i2)] += len(cell)
                out_of[(a, i1)] += len(cell)
    linked2 = sum(into[(T.name, i2)] * out_of[(T.name, j1)] for T, i2, j1 in linked_pairs)

    connection = {
        T.name: [
            (i, j, [((base.encode(g) << bbits) | block(T.name, i, T.name, j), c)
                    for g, c in entry.items()])
            for (i, j), entry in T.D.items()
        ]
        for T in cxs
    }

    # (base1, base2, parity) -> terms (base << bbits, coeff)
    products: dict[tuple[int, int, int], tuple[tuple[int, int], ...]] = {}
    rows1: dict[int, tuple[tuple[int, int], ...]] = {}

    def mu(keys: tuple) -> Iterable[tuple[int, int]]:
        if len(keys) == 2:
            k1, k2 = keys
            middle = k1 & smask
            if middle != (k2 >> sbits) & smask:
                return ()
            parity = (shifts[middle] - shifts[(k1 >> sbits) & smask]) & 1
            pkey = (k1 >> bbits, k2 >> bbits, parity)
            terms = products.get(pkey)
            if terms is None:
                sgn = -1 if (base_degree(pkey[1]) + 1) * parity & 1 else 1
                terms = products[pkey] = tuple((b << bbits, sgn * c) for b, c in base_mu(pkey[:2]))
            out = (k1 & first_mask) | (k2 & smask)
            res = []  # a loop: cheaper than a list comprehension here
            for b, c in terms:
                res.append((b | out, c))
            return res
        if len(keys) == 1:
            row = rows1.get(keys[0])
            if row is None:
                row = rows1[keys[0]] = mu1_row(keys[0])
            return row
        return ()

    def mu1_row(key: int) -> tuple[tuple[int, int], ...]:
        Ta, i1 = summands[(key >> sbits) & smask]
        Tb, i2 = summands[key & smask]
        acc: dict[int, int] = {}
        accumulate(acc, (((b << bbits) | key & bmask, c) for b, c in base_mu((key >> bbits,))), 1)
        for _, j, entry in connection[Ta.name]:
            if j == i1:
                for e, c in entry:
                    accumulate(acc, mu((e, key)), c)
        for j, _, entry in connection[Tb.name]:
            if j == i2:
                for e, c in entry:
                    accumulate(acc, mu((key, e)), c)
        return tuple(acc.items())

    def degree(key: int) -> int:
        return base_degree(key >> bbits) + shifts[key & smask] - shifts[(key >> sbits) & smask]

    def linked_groups(d: int):
        if d != 2:
            reps = {pair: keys[::stride] for pair, keys in hom_keys.items()}
            yield from composable_paths(names, reps, d)
            return
        for a, b, c in itertools.product(names, repeat=3):
            after = follow[(b, c)]
            for i1, row in enumerate(cells[(a, b)]):
                if summand_of[(a, i1)] not in in_reps:
                    continue
                for i2, cell in enumerate(row):
                    lasts = after[i2]
                    if lasts:
                        for g1 in cell[::stride]:
                            yield (g1,), lasts

    decoded: dict[int, Generator] = {}
    encoded: dict[Generator, int] = {}

    def decode(key: int) -> Generator:
        gen = decoded.get(key)
        if gen is None:
            Ta, i1 = summands[(key >> sbits) & smask]
            Tb, i2 = summands[key & smask]
            gen = decoded[key] = Generator(
                ("m", Ta.name, i1, Tb.name, i2, base.decode(key >> bbits).gid), degree(key)
            )
            encoded[gen] = key
        return gen

    def encode(gen: Generator) -> int:
        key = encoded.get(gen)
        if key is None:
            _, n1, i1, n2, i2, base_gid = gen.gid
            shift = shifts[summand_of[(n2, i2)]] - shifts[summand_of[(n1, i1)]]
            b = base.encode(Generator(base_gid, gen.degree - shift))
            key = encoded[gen] = (b << bbits) | block(n1, i1, n2, i2)
        return key

    return AInftyCategory(
        name, names, hom_keys,
        KeyedOps(mu, degree, decode, encode, stride, linked_groups=linked_groups,
                 linked={2: linked2}),
        is_dg=True, arities={1, 2},
    )


def _firsts(items: Iterable, cls) -> set:
    """The items whose class `cls(item)` no earlier item has."""
    firsts: dict = {}
    for item in items:
        firsts.setdefault(cls(item), item)
    return set(firsts.values())


def check_tw_dg(
    model: PathModel,
    complexes: Iterable[TwistedComplex],
    window: int = 1,
    name: str = "tw-dg",
    max_d: int = 2,
) -> CheckReport:
    """Validate Maurer-Cartan on all samples, then verify that mu_1 of the
    twisted category squares to zero and satisfies Leibniz against mu_2 on
    all windowed basis morphisms (max_d=3 adds composition associativity).

    A complex equal to an earlier one (same model, summands and connection;
    names do not count) is skipped and counted in `duplicate_complexes`:
    its relations are the earlier copy's renamed, which come first in
    `composable_tuples` order, so the verdict and the witness are the same."""
    cxs = list(complexes)
    firsts: dict[tuple, TwistedComplex] = {}
    for T in cxs:
        firsts.setdefault((T.model, T.summands, frozenset(T.D.items())), T)
    distinct = list(firsts.values())
    for T in distinct:
        rep = validate_twisted(T)
        if not rep.ok:
            return failed(name, {"complex": T.name, **rep.witness})
    cat = tw_category(model, distinct, window=window)
    rep = check_ainfty(cat, max_d=max_d, name=name)
    if not rep.ok:
        return rep
    return passed(name, complexes=len(distinct), duplicate_complexes=len(cxs) - len(distinct),
                  **rep.details)


# ---------------------------------------------------------------------------
# Synthetic sample complexes and JSON export.
# ---------------------------------------------------------------------------

def synthetic_twisted_complexes(model, tag: str) -> list[TwistedComplex]:
    """A deterministic battery of valid twisted complexes over a circle path
    model: varied summand counts, shifts, windings and multi-term entries,
    with connection supports chosen so that no two entries compose."""
    n = model.npoints()
    g = model.gen
    out = []

    def T(label, summands, D):
        out.append(TwistedComplex(model, summands, D, name=f"{tag}-{label}"))

    for p in range(n):
        T(f"single-{p}", [ShiftedObject(p, 0)], {})
    p, q = 0, n - 1
    T("pair-0", [ShiftedObject(p, 0), ShiftedObject(q, 1)],
      {(0, 1): Chain.of(g(p, q, 0))})
    T("pair-neg", [ShiftedObject(p, 2), ShiftedObject(q, 3)],
      {(0, 1): Chain.of(g(p, q, -1), -1)})
    T("pair-two-terms", [ShiftedObject(q, 0), ShiftedObject(p, 1)],
      {(0, 1): Chain.of(g(q, p, 1)) + Chain.of(g(q, p, -1), -2)})
    T("triple-gap", [ShiftedObject(p, 0), ShiftedObject(q, 1), ShiftedObject(p, 2)],
      {(0, 1): Chain.of(g(p, q, 1))})
    T("triple-upper", [ShiftedObject(p, 0), ShiftedObject(q, 3), ShiftedObject(p, 1)],
      {(0, 2): Chain.of(g(p, p, 2))})
    T("quad-stairs",
      [ShiftedObject(p, 0), ShiftedObject(q, 1), ShiftedObject(p, 0), ShiftedObject(q, 1)],
      {(0, 1): Chain.of(g(p, q, 0)),
       (2, 3): Chain.of(g(p, q, 2), -1),
       (0, 3): Chain.of(g(p, q, -2))})
    T("quad-sparse",
      [ShiftedObject(p, 1), ShiftedObject(p, 2), ShiftedObject(q, 2), ShiftedObject(q, 3)],
      {(0, 1): Chain.of(g(p, p, 1)) + Chain.of(g(p, p, 0), 3),
       (2, 3): Chain.of(g(q, q, -1))})
    return out


def twisted_to_json(T: TwistedComplex) -> dict:
    rows = [
        {"from": i, "to": j, "chain": chain_to_json(chain)}
        for (i, j), chain in sorted(T.D.items())
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "twisted_complex",
        "name": T.name,
        "summands": [{"point": s.base, "shift": s.shift} for s in T.summands],
        "D": rows,
    }


TWISTED_COMPLEX = Document("twisted_complex", {
    "name": str, "summands": [{"point": int, "shift": int}],
    "D": [{"from": int, "to": int, "chain": CHAIN}],
})


def twisted_from_json(model: PathModel, data: dict) -> TwistedComplex:
    check(data, TWISTED_COMPLEX)
    summands = [ShiftedObject(row["point"], row["shift"]) for row in data["summands"]]
    D = {
        (row["from"], row["to"]): chain_from_json(row["chain"])
        for row in data["D"]
    }
    return TwistedComplex(model, summands, D, name=data["name"])
