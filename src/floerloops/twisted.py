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

from dataclasses import dataclass
from typing import Iterable, Mapping

from .ainfty import (
    AInftyCategory,
    chain_from_json,
    chain_to_json,
    check_ainfty,
    mu2_shifted,
)
from .gradedalg import Chain, Generator, sign_pow
from .pontryagin import PathModel
from .report import CheckReport, failed, passed

SCHEMA_VERSION = 1


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
            residual = model.mu1(T.d_entry(i, j))
            for k in range(i + 1, j):
                mi, mk, mj = T.shift_of(i), T.shift_of(k), T.shift_of(j)
                residual = residual + mu2_shifted(
                    model.mu2, T.d_entry(k, j), T.d_entry(i, k), (mi, mk, mj)
                )
            if not residual.is_zero():
                return failed(
                    name, {"entry": (i, j), "residual": repr(residual)}
                )
    return passed(name, summands=n)


def mc_product_stratum_parity(deg_qi: int, deg_qk: int, deg_qj: int) -> int:
    """Total parity with which a product stratum enters the Maurer-Cartan
    residual of a connection built from strip moduli, re-derived from its
    constituents rather than transcribed.

    The contributions are: the connection signs |q^i|(|q^k|+1) and
    |q^k|(|q^j|+1) on the two factors, the shifted-composition sign
    (dim H(q^k,q^j) + 1)(|q^k| - |q^i|), the chain-level Leibniz sign
    dim H(q^i,q^k), and the connection sign |q^i|(|q^j|+1) on the target
    entry; strip moduli have dim H(q^a,q^b) = |q^a| - |q^b| - 1.
    """
    dim_ik = deg_qi - deg_qk - 1
    dim_kj = deg_qk - deg_qj - 1
    total = (
        deg_qi * (deg_qk + 1)
        + deg_qk * (deg_qj + 1)
        + (dim_kj + 1) * (deg_qk - deg_qi)
        + dim_ik
        + deg_qi * (deg_qj + 1)
    )
    return total % 2


# ---------------------------------------------------------------------------
# Morphism matrices.
# ---------------------------------------------------------------------------

MorphismMatrix = dict[tuple[int, int], Chain]


def matrix_add(A: MorphismMatrix, B: MorphismMatrix) -> MorphismMatrix:
    out = dict(A)
    for key, chain in B.items():
        total = out.get(key, Chain.zero()) + chain
        if total.is_zero():
            out.pop(key, None)
        else:
            out[key] = total
    return out


def matrix_is_zero(S: MorphismMatrix) -> bool:
    return all(chain.is_zero() for chain in S.values())


def matrix_entry_degree(T1: TwistedComplex, T2: TwistedComplex, i1: int, i2: int, g: int) -> int:
    return g + T2.shift_of(i2) - T1.shift_of(i1)


def tw_mu2(
    T1: TwistedComplex, T2: TwistedComplex, T3: TwistedComplex,
    S2: MorphismMatrix, S1: MorphismMatrix,
) -> MorphismMatrix:
    """Matrix product with shifted-composition entries:
    (S2 S1)[i,k] = sum_j mu2_shifted(S2[j,k], S1[i,j])."""
    model = T1.model
    out: MorphismMatrix = {}
    for (i, j), s1 in S1.items():
        for (j2, k), s2 in S2.items():
            if j2 != j:
                continue
            shifts = (T1.shift_of(i), T2.shift_of(j), T3.shift_of(k))
            term = mu2_shifted(model.mu2, s2, s1, shifts)
            if term.is_zero():
                continue
            total = out.get((i, k), Chain.zero()) + term
            if total.is_zero():
                out.pop((i, k), None)
            else:
                out[(i, k)] = total
    return out


def tw_mu1(T1: TwistedComplex, T2: TwistedComplex, S: MorphismMatrix) -> MorphismMatrix:
    """mu_1 S + mu_2(S, D^1) + mu_2(D^2, S) on a morphism matrix from T1 to T2."""
    model = T1.model
    out: MorphismMatrix = {}
    for key, chain in S.items():
        d = model.mu1(chain)
        if not d.is_zero():
            out[key] = d
    out = matrix_add(out, tw_mu2(T1, T1, T2, S, dict(T1.D)))
    out = matrix_add(out, tw_mu2(T1, T2, T2, dict(T2.D), S))
    return {k: v for k, v in out.items() if not v.is_zero()}


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

    Adapter generators have gid ("m", name1, i1, name2, i2, base_gid) and
    shifted degree; mu_1 and mu_2 are the twisted operations, so the arity
    support is {1, 2}.  The operation paths are specialised to elementary
    inputs and memoised; they agree with `tw_mu1`/`tw_mu2` on the
    corresponding matrices.

    Summand linkage.  Take g1 at summands (i1, i2) of Hom(Ta, Tb) and g2 at
    (j1, j2) of Hom(Tb, Tc).  The d = 2 relation on (g1, g2) is a signed sum
    of mu_1 mu_2(g2, g1), mu_2(g2, mu_1 g1) and mu_2(mu_1 g2, g1).  An
    elementary product is nonzero only if the inner summands agree, so the
    first term needs i2 == j1.  mu_1 g1 has entries at (i1, i2), at (k, i2)
    for (k, i1) in Ta.D, and at (i1, k) for (i2, k) in Tb.D, so the second
    term needs i2 == j1 or (i2, j1) in Tb.D.  Symmetrically mu_1 g2 has
    entries starting at j1 or at k with (k, j1) in Tb.D, so the third term
    needs j1 == i2 or (i2, j1) in Tb.D.  The relation on a pair failing
    "i2 == j1 or (i2, j1) in Tb.D" is therefore zero, and `linked` lets the
    checker skip it.  Tuples of other lengths are always linked.
    """
    cxs = list(complexes)
    names = [T.name for T in cxs]
    if len(set(names)) != len(names):
        raise ValueError("twisted complexes need distinct names")
    by_name = {T.name: T for T in cxs}

    hom_basis_map: dict[tuple, tuple[Generator, ...]] = {}
    for Ta in cxs:
        for Tb in cxs:
            gens = []
            for i1 in range(Ta.nsummands()):
                for i2 in range(Tb.nsummands()):
                    base = model.hom_basis(Ta.point_of(i1), Tb.point_of(i2), window)
                    for g in base:
                        deg = matrix_entry_degree(Ta, Tb, i1, i2, g.degree)
                        gens.append(
                            Generator(("m", Ta.name, i1, Tb.name, i2, g.gid), deg)
                        )
            hom_basis_map[(Ta.name, Tb.name)] = tuple(gens)

    gen_cache: dict = {}

    def wrapped_gen(n1, i1, n2, i2, base_gid, degree) -> Generator:
        key = (n1, i1, n2, i2, base_gid, degree)
        gen = gen_cache.get(key)
        if gen is None:
            gen = Generator(("m", n1, i1, n2, i2, base_gid), degree)
            gen_cache[key] = gen
        return gen

    def wrap(Ta, i1, Tb, i2, chain: Chain) -> dict:
        shift = Tb.shift_of(i2) - Ta.shift_of(i1)
        return {
            wrapped_gen(Ta.name, i1, Tb.name, i2, g.gid, g.degree + shift): c
            for g, c in chain.items()
        }

    memo1: dict = {}
    prod_cache: dict = {}

    def shifted_product(base1, base2, m0: int, m1: int) -> tuple:
        """Underlying chain of mu2_shifted on two basis generators, as a
        tuple of (gid, degree, coeff); keyed on the shift parity only."""
        key = (base1, base2, (m1 - m0) & 1)
        hit = prod_cache.get(key)
        if hit is None:
            u1 = _underlying(model, base1)
            u2 = _underlying(model, base2)
            term = mu2_shifted(
                model.mu2, Chain.of(u2), Chain.of(u1), (m0, m1, m1 + 1)
            )
            hit = tuple((g.gid, g.degree, c) for g, c in term.items())
            prod_cache[key] = hit
        return hit

    def mu1_elem(gid) -> Chain:
        hit = memo1.get(gid)
        if hit is not None:
            return hit
        _, n1, i1, n2, i2, base_gid = gid
        Ta, Tb = by_name[n1], by_name[n2]
        under = _underlying(model, base_gid)
        acc: dict = {}
        top = model.mu1(Chain.of(under))
        if not top.is_zero():
            acc.update(wrap(Ta, i1, Tb, i2, top))
        s1 = Chain.of(under)
        for (k, j), entry in Ta.D.items():
            if j != i1:
                continue
            shifts = (Ta.shift_of(k), Ta.shift_of(i1), Tb.shift_of(i2))
            term = mu2_shifted(model.mu2, s1, entry, shifts)
            for g, c in wrap(Ta, k, Tb, i2, term).items():
                acc[g] = acc.get(g, 0) + c
        for (j, k), entry in Tb.D.items():
            if j != i2:
                continue
            shifts = (Ta.shift_of(i1), Tb.shift_of(i2), Tb.shift_of(k))
            term = mu2_shifted(model.mu2, entry, s1, shifts)
            for g, c in wrap(Ta, i1, Tb, k, term).items():
                acc[g] = acc.get(g, 0) + c
        out = Chain(acc)
        memo1[gid] = out
        return out

    def mu2_elem(gid1, gid2) -> Chain:
        _, n1, i1, n2, i2, base1 = gid1
        _, m1, j1, m2, j2, base2 = gid2
        if n2 != m1 or i2 != j1:
            return Chain.zero()
        Ta, Tb, Tc = by_name[n1], by_name[n2], by_name[m2]
        ma, mb, mc = Ta.shift_of(i1), Tb.shift_of(i2), Tc.shift_of(j2)
        shift_out = mc - ma
        terms = shifted_product(base1, base2, ma, mb)
        if not terms:
            return Chain.zero()
        acc = {
            wrapped_gen(n1, i1, m2, j2, bgid, bdeg + shift_out): c
            for bgid, bdeg, c in terms
        }
        out = Chain.__new__(Chain)
        out._terms = acc
        return out

    def mu_fn(gens: tuple[Generator, ...]) -> Chain:
        if len(gens) == 1:
            return mu1_elem(gens[0].gid)
        if len(gens) == 2:
            return mu2_elem(gens[0].gid, gens[1].gid)
        return Chain.zero()

    def gen_hom_fn(gen: Generator) -> tuple:
        _, n1, _, n2, _, _ = gen.gid
        return (n1, n2)

    connected = {T.name: frozenset(T.D) for T in cxs}

    def linked(gens: tuple[Generator, ...]) -> bool:
        if len(gens) != 2:
            return True
        _, _, _, middle, i2, _ = gens[0].gid
        j1 = gens[1].gid[2]
        return i2 == j1 or (i2, j1) in connected[middle]

    return AInftyCategory(
        name, tuple(names), hom_basis_map, mu_fn,
        is_dg=True, arities={1, 2}, gen_hom_fn=gen_hom_fn, linked=linked,
    )


def _underlying(model: PathModel, base_gid) -> Generator:
    """The model generator for a base gid, with its own (unshifted) degree."""
    gen = getattr(model, "_gid_cache", None)
    if gen is None:
        model._gid_cache = {}
    hit = model._gid_cache.get(base_gid)
    if hit is None:
        hit = _find_model_gen(model, base_gid)
        model._gid_cache[base_gid] = hit
    return hit


def _find_model_gen(model: PathModel, base_gid) -> Generator:
    if isinstance(base_gid, tuple) and base_gid and base_gid[0] == "p":
        return model.gen(base_gid[1], base_gid[2], base_gid[3])
    for i in range(model.npoints()):
        for j in range(model.npoints()):
            for g in model.hom_basis(i, j, 0):
                if g.gid == base_gid:
                    return g
    raise KeyError(f"unknown model generator {base_gid}")


def check_tw_dg(
    model: PathModel,
    complexes: Iterable[TwistedComplex],
    window: int = 1,
    name: str = "tw-dg",
    max_d: int = 2,
) -> CheckReport:
    """Validate Maurer-Cartan on all samples, then verify that mu_1 of the
    twisted category squares to zero and satisfies Leibniz against mu_2 on
    all windowed basis morphisms (max_d=3 adds composition associativity)."""
    cxs = list(complexes)
    for T in cxs:
        rep = validate_twisted(T)
        if not rep.ok:
            return failed(name, {"complex": T.name, **rep.witness})
    cat = tw_category(model, cxs, window=window)
    rep = check_ainfty(cat, max_d=max_d, name=name)
    if not rep.ok:
        return rep
    return passed(name, complexes=len(cxs), **rep.details)


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


def twisted_from_json(model: PathModel, data: dict) -> TwistedComplex:
    if data.get("kind") != "twisted_complex":
        raise ValueError("not a twisted_complex document")
    summands = [ShiftedObject(row["point"], row["shift"]) for row in data["summands"]]
    D = {
        (row["from"], row["to"]): chain_from_json(row["chain"])
        for row in data["D"]
    }
    return TwistedComplex(model, summands, D, name=data["name"])
