"""Finite models of the path category of a space: basepoints, graded hom
complexes, and strictly associative concatenation.

Morphism complexes are graded as Hom_* = C_{-*} of the path space, so the
degree-0 part carries the components of the path space and the product sign
for mu_2 is (-1)**deg(first factor).  The circle model stores one generator
per homotopy class of paths between marked basepoints, with zero
differential; table-backed models may carry a differential and are validated
by the same exhaustive checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Hashable, Iterable, Mapping

from .ainfty import AInftyCategory, KeyedOps, check_ainfty
from .documents import Document, DocumentError, check
from .gradedalg import Chain, Generator, accumulate, sign_pow
from .report import CheckReport, failed, passed


class PathModel:
    """Common machinery for concrete path models.

    Subclasses provide the basis, endpoints, units, the raw concatenation of
    basis generators, and the differential on basis generators.
    """

    points: tuple = ()
    # translation(gen) -> (k, gen0) with gen = t^k gen0, for a model whose
    # products are declared to commute with winding translation; None if not
    translation = None

    # -- hooks -------------------------------------------------------------
    def hom_basis(self, i: int, j: int, window: int) -> tuple[Generator, ...]:
        raise NotImplementedError

    def gen_endpoints(self, gen: Generator) -> tuple[int, int]:
        raise NotImplementedError

    def unit_gen(self, i: int) -> Generator:
        raise NotImplementedError

    def concat_gens(self, g1: Generator, g2: Generator) -> Chain:
        """Raw concatenation g1.g2 (g1 first, from i to j; g2 from j to l)."""
        raise NotImplementedError

    def d_gen(self, gen: Generator) -> Chain:
        raise NotImplementedError

    # -- derived operations --------------------------------------------------
    def npoints(self) -> int:
        return len(self.points)

    def mu1(self, chain: Chain) -> Chain:
        acc: dict[Generator, int] = {}
        for gen, coeff in chain.items():
            accumulate(acc, self.d_gen(gen).items(), coeff)
        return Chain.from_sums(acc)

    def mu2(self, chain2: Chain, chain1: Chain) -> Chain:
        """mu_2(s2, s1) = (-1)**deg(s1) s1.s2, extended bilinearly."""
        acc: dict[Generator, int] = {}
        for g1, c1 in chain1.items():
            s = sign_pow(g1.degree)
            for g2, c2 in chain2.items():
                accumulate(acc, self.concat_gens(g1, g2).items(), s * c1 * c2)
        return Chain.from_sums(acc)


class CirclePathModel(PathModel):
    """Path classes between marked basepoints on a circle of circumference 1.

    A generator from basepoint i to basepoint j is labelled by the integer
    winding k; its total displacement is (points[j] - points[i]) + k.
    Every component of the path space is contractible, so the model is
    concentrated in degree 0 with zero differential, and concatenation adds
    windings.
    """

    def __init__(self, points: Iterable[Fraction]):
        pts = tuple(Fraction(p) for p in points)
        if not pts:
            raise ValueError("need at least one basepoint")
        if len(set(pts)) != len(pts):
            raise ValueError("basepoints must be distinct")
        if any(p < 0 or p >= 1 for p in pts):
            raise ValueError("basepoints must lie in [0, 1)")
        self.points = pts

    def gen(self, i: int, j: int, winding: int) -> Generator:
        self._check_index(i)
        self._check_index(j)
        return Generator(("p", i, j, winding), 0)

    def _check_index(self, i: int) -> None:
        if not 0 <= i < len(self.points):
            raise IndexError(f"basepoint index {i} out of range")

    def hom_basis(self, i: int, j: int, window: int) -> tuple[Generator, ...]:
        return tuple(self.gen(i, j, k) for k in range(-window, window + 1))

    def gen_endpoints(self, gen: Generator) -> tuple[int, int]:
        _, i, j, _ = gen.gid
        return i, j

    def displacement(self, gen: Generator) -> Fraction:
        _, i, j, k = gen.gid
        return self.points[j] - self.points[i] + k

    def unit_gen(self, i: int) -> Generator:
        return self.gen(i, i, 0)

    def concat_gens(self, g1: Generator, g2: Generator) -> Chain:
        _, i, j, k1 = g1.gid
        _, j2, l, k2 = g2.gid
        if j != j2:
            raise ValueError(f"paths not composable: {g1.gid} then {g2.gid}")
        return Chain.of(self.gen(i, l, k1 + k2))

    def d_gen(self, gen: Generator) -> Chain:
        return Chain.zero()

    def translation(self, gen: Generator) -> tuple[int, Generator]:
        _, i, j, k = gen.gid
        return k, self.gen(i, j, 0)


def circle_model(num_basepoints: int) -> CirclePathModel:
    """The model of the circle's path category on n equally spaced basepoints."""
    if num_basepoints < 1:
        raise ValueError("num_basepoints must be >= 1")
    return CirclePathModel(Fraction(j, num_basepoints) for j in range(num_basepoints))


class FinitePathModel(PathModel):
    """A path model backed by explicit finite tables (e.g. loaded from JSON),
    with at least one point; every table must name only known points and
    generators and keep the grading (a composition row's results have degree
    |first| + |second|, a differential row's |gen| + 1), else construction
    raises ValueError.  It declares no winding translation."""

    def __init__(
        self,
        points: tuple,
        generators: Mapping[Hashable, tuple[int, int, int]],
        units: Mapping[int, Hashable],
        composition: Mapping[tuple[Hashable, Hashable], Mapping[Hashable, int]],
        differential: Mapping[Hashable, Mapping[Hashable, int]] | None = None,
    ):
        self.points = tuple(points)
        if not self.points:
            raise ValueError("path model has no points")
        self._gens: dict[Hashable, Generator] = {}
        self._endpoints: dict[Hashable, tuple[int, int]] = {}
        for gid, (src, tgt, deg) in generators.items():
            if not (0 <= src < len(self.points) and 0 <= tgt < len(self.points)):
                raise ValueError(f"generator {gid!r} runs between unknown points {src}, {tgt}")
            self._gens[gid] = Generator(gid, deg)
            self._endpoints[gid] = (src, tgt)
        rows = [(*pair, *table) for pair, table in composition.items()]
        rows += [(gid, *table) for gid, table in (differential or {}).items()]
        for gid in itertools.chain(*rows):
            if gid not in self._gens:
                raise ValueError(f"path model row names unknown generator {gid!r}")
        # products add degrees and the differential raises them by one
        rules = [(f"composition {g1!r}.{g2!r}", table,
                  self._gens[g1].degree + self._gens[g2].degree)
                 for (g1, g2), table in composition.items()]
        rules += [(f"differential of {gid!r}", table, self._gens[gid].degree + 1)
                  for gid, table in (differential or {}).items()]
        for what, table, expected in rules:
            for gid in table:
                degree = self._gens[gid].degree
                if degree != expected:
                    raise ValueError(
                        f"{what} result {gid!r} has degree {degree}, expected {expected}")
        self._units = dict(units)
        for key in self._units:
            if key not in range(len(self.points)):
                raise ValueError(f"unit key {key!r} is not a point index")
        for i in range(len(self.points)):
            ugid = self._units.get(i)
            if ugid not in self._gens or self._endpoints[ugid] != (i, i):
                raise ValueError(f"missing or invalid unit for point {i}")
        self._compose = {
            pair: self._to_chain(table) for pair, table in composition.items()
        }
        self._diff = {
            gid: self._to_chain(table) for gid, table in (differential or {}).items()
        }

    def _to_chain(self, table: Mapping[Hashable, int]) -> Chain:
        return Chain({self._gens[gid]: coeff for gid, coeff in table.items()})

    def hom_basis(self, i: int, j: int, window: int = 0) -> tuple[Generator, ...]:
        out = [g for gid, g in self._gens.items() if self._endpoints[gid] == (i, j)]
        return tuple(sorted(out, key=lambda g: repr(g.gid)))

    def all_gens(self) -> tuple[Generator, ...]:
        return tuple(sorted(self._gens.values(), key=lambda g: repr(g.gid)))

    def gen_endpoints(self, gen: Generator) -> tuple[int, int]:
        return self._endpoints[gen.gid]

    def unit_gen(self, i: int) -> Generator:
        return self._gens[self._units[i]]

    def concat_gens(self, g1: Generator, g2: Generator) -> Chain:
        if self._endpoints[g1.gid][1] != self._endpoints[g2.gid][0]:
            raise ValueError(f"paths not composable: {g1.gid} then {g2.gid}")
        return self._compose.get((g1.gid, g2.gid), Chain.zero())

    def d_gen(self, gen: Generator) -> Chain:
        return self._diff.get(gen.gid, Chain.zero())


class MutatedPathModel(PathModel):
    """Wrapper flipping the sign of one composition entry (test corruption).
    It forwards its base's winding `translation`: the checker verifies that
    premise on the entries it reads, so a flip among them sends it to the
    full enumeration."""

    def __init__(self, base: PathModel, flip_pair: tuple[Hashable, Hashable]):
        self.base = base
        self.points = base.points
        self.flip_pair = flip_pair
        self.translation = base.translation

    def hom_basis(self, i, j, window):
        return self.base.hom_basis(i, j, window)

    def gen_endpoints(self, gen):
        return self.base.gen_endpoints(gen)

    def unit_gen(self, i):
        return self.base.unit_gen(i)

    def concat_gens(self, g1, g2):
        out = self.base.concat_gens(g1, g2)
        if (g1.gid, g2.gid) == self.flip_pair:
            out = -out
        return out

    def d_gen(self, gen):
        return self.base.d_gen(gen)


def validate_path_model(
    model: PathModel, window: int = 2, name: str = "path-model"
) -> CheckReport:
    """d-squared, Leibniz and associativity, as the A-infinity relations of
    `path_model_category` up to arity 3, then unitality.

    All basis elements within the winding window are checked; products are
    evaluated exactly, so composites leaving the window are still correct.
    A model with a winding `translation` (the circle, or a wrapper of it)
    is checked by verified translation (see `ainfty`): 81 of 10,125 d = 3
    tuples on three points at window 2.  The witness of a failed relation
    is the kernel's {tuple, d, residual}, that of the full enumeration.
    """
    cat = path_model_category(model, window)
    rep = check_ainfty(cat, 3, name)
    if not rep.ok:
        return rep
    for i in cat.objects:
        unit = model.unit_gen(i)
        for src, tgt in cat.hom_keys:
            for g in cat.hom_basis(src, tgt):
                if tgt == i and model.concat_gens(g, unit) != Chain.of(g):
                    return failed(name, {"check": "right-unit", "generator": g.gid})
                if src == i and model.concat_gens(unit, g) != Chain.of(g):
                    return failed(name, {"check": "left-unit", "generator": g.gid})
    return passed(name, **rep.details)


# ---------------------------------------------------------------------------
# JSON ingestion of table-backed models.
# ---------------------------------------------------------------------------

PATH_MODEL = Document("path_model", {
    "points": list,
    "generators": [{"id": str, "source": int, "target": int, "degree": int}],
    "units": {str: str},
    "composition": [{"first": str, "second": str, "result": {str: int}}],
    "differential?": {str: {str: int}},
})


def path_model_from_json(data: dict) -> FinitePathModel:
    """The table-backed model of a path_model document; what the document
    or `FinitePathModel` rejects raises `DocumentError`."""
    check(data, PATH_MODEL)
    gens = {}
    for g in data["generators"]:
        if g["id"] in gens:
            raise DocumentError(f"path_model: generator {g['id']!r} is listed twice")
        gens[g["id"]] = (g["source"], g["target"], g["degree"])
    composition = {}
    for r in data["composition"]:
        pair = (r["first"], r["second"])
        if pair in composition:
            raise DocumentError(f"path_model: composition {pair[0]!r}.{pair[1]!r} is listed twice")
        composition[pair] = r["result"]
    # a key that spells no point index stays a string, which the model refuses
    index = {str(i): i for i in range(len(data["points"]))}
    try:
        return FinitePathModel(
            tuple(data["points"]), gens,
            {index.get(key, key): gid for key, gid in data["units"].items()},
            composition,
            data.get("differential", {}),
        )
    except ValueError as exc:
        raise DocumentError(f"path_model: {exc}") from exc


def path_model_category(model: PathModel, window: int = 2, name: str = "P") -> AInftyCategory:
    """View a path model as a DG A-infinity category on its basepoints.

    `mu_fn` evaluates the model's `mu1` and `mu2` on Chains.  The checker
    runs on interned integer keys instead (`keyed`): a generator gets a key
    the first time it is seen, in a windowed hom basis or in an output.
    mu_2 of a key pair is (-1)**|g1| `concat_gens(g1, g2)` and mu_1 of a key
    is `d_gen`, each built once from the model's own hooks and kept as
    (key, coeff) terms, so wrapped and table-backed models work unchanged.
    A model's `translation` hook, when it has one, becomes the keys'
    declared winding (`KeyedOps.translation`).
    """
    n = model.npoints()
    by_key: list[Generator] = []
    index: dict[Generator, int] = {}

    def intern(gen: Generator) -> int:
        key = index.get(gen)
        if key is None:
            key = index[gen] = len(by_key)
            by_key.append(gen)
        return key

    hom_keys = {
        (i, j): tuple(map(intern, model.hom_basis(i, j, window)))
        for i in range(n) for j in range(n)
    }
    terms: dict[tuple, tuple[tuple[int, int], ...]] = {}

    def mu(keys: tuple) -> tuple[tuple[int, int], ...]:
        out = terms.get(keys)
        if out is None:
            if len(keys) == 1:
                chain = model.d_gen(by_key[keys[0]])
            elif len(keys) == 2:
                g1 = by_key[keys[0]]
                chain = model.concat_gens(g1, by_key[keys[1]]).scale(sign_pow(g1.degree))
            else:
                return ()
            out = terms[keys] = tuple((intern(g), c) for g, c in chain.items())
        return out

    def mu_fn(gens):
        if len(gens) == 1:
            return model.mu1(Chain.of(gens[0]))
        if len(gens) == 2:
            return model.mu2(Chain.of(gens[1]), Chain.of(gens[0]))
        return Chain.zero()

    moved: dict[int, tuple[int, int]] = {}

    def translation(key: int) -> tuple[int, int]:
        out = moved.get(key)
        if out is None:
            k, gen0 = model.translation(by_key[key])
            out = moved[key] = (k, intern(gen0))
        return out

    return AInftyCategory(
        name, tuple(range(n)), hom_keys,
        KeyedOps(
            mu, lambda key: by_key[key].degree, by_key.__getitem__, intern,
            translation=translation if model.translation else None,
        ),
        is_dg=True, arities={1, 2}, mu_fn=mu_fn,
    )


def leibniz_witness_model() -> FinitePathModel:
    """One basepoint, generators u (unit, degree 0), a, b, c (degree 1) and
    ab (degree 2), with differential c -> ab and the single product
    a.b = ab.  The smallest model with a non-trivially satisfied
    Maurer-Cartan equation, used to exercise differential-vs-product signs.
    """
    gens = {
        "u": (0, 0, 0),
        "a": (0, 0, 1),
        "b": (0, 0, 1),
        "c": (0, 0, 1),
        "ab": (0, 0, 2),
    }
    names = list(gens)
    composition: dict[tuple, dict] = {}
    for x in names:
        composition[("u", x)] = {x: 1}
        composition[(x, "u")] = {x: 1}
    composition[("a", "b")] = {"ab": 1}
    return FinitePathModel(
        points=("P",),
        generators=gens,
        units={0: "u"},
        composition=composition,
        differential={"c": {"ab": 1}},
    )
