"""Generic A-infinity categories over Z and executable checkers for their
defining relations.

Conventions.  An operation mu_d has degree 2-d.  Input tuples are stored in
composition order (x_1, ..., x_d) with x_1 in hom(L_0, L_1); the displayed
operation mu_d(x_d, ..., x_1) acts on the reversed tuple.  The quadratic
relation checked by `check_ainfty` is

    sum (-1)**(k + |x_1| + ... + |x_k|)
        mu_{d_1}(x_d, ..., mu_{d_2}(x_{k+d_2}, ..., x_{k+1}), ..., x_1) = 0,

and `check_functor` evaluates the functor equation into a DG target, where
the right-hand side is mu_1(F_d) plus the sum of mu_2(F_{d_2}, F_{d_1}) over
splittings.

Arity support.  A category declares `arities`, the set of d for which
mu_d can be nonzero; the checkers never consult mu outside it, so the
declaration is authoritative.  A split (d_2, k) of an arity-d relation is
admissible when d_2 and d_1 = d - d_2 + 1 both lie in the support; the
other terms vanish identically.  An arity with no admissible split has a zero relation on every
tuple: `check_ainfty` does not enumerate it but counts its composable tuples
from the hom-basis sizes and reports them per arity as "certified zero by
support" (the cylinder, with support {2}, enumerates only d = 3).  The
composable tuples an enumeration leaves out because their relation is known
to be zero, e.g. by summand, are reported as "certified zero by linkage",
those it leaves out because a visited translate decides them (see
`KeyedOps.orbit`) as "certified by translation", and those it leaves out
because a visited tuple decides them up to a relabelling of their inputs
(see `KeyedOps.linked`) as "certified by relabelling".

Verified translation.  Keyed ops may declare a winding on their keys
(`KeyedOps.translation`: the cylinder's chords, the circle's path classes).
For such a category with support in {1, 2}, `check_ainfty` checks the
premise mu(t^k1 x1, ..., t^kd xd) = t^(k1+...+kd) mu(x1, ..., xd) before
using it.  Through the category's own keyed mu it computes every entry the
full enumeration reads, as the splits of the arities up to max_d ask: mu on
the window's keys and composable pairs, and on each of their outputs alone
or beside a window key.  Each must equal the winding translate of its
normalised entry, mu on the winding-0 translates of its inputs.  The
window's keys must fall into orbits of one size m, each holding its
winding-0 key at the same degree, and each output's winding-0 translate
must lie in its hom's window.  Then the relation on a window tuple is the
translate of the relation on its winding-0 tuple, so one tuple per object
path and orbit is visited, with `orbit` m: on the acceptance geometry 81 of
27,783 d = 3 tuples, after 3,591 mu_2 entries, and the work grows as W^2,
not W^3.  An entry out of class (a `--mutate` flip, a sign read from the
output winding, a gauge not of the form t_ab chi(w)) or a failing
representative falls back to the full enumeration, so the verdict and the
witness are always the full path's.

Keys.  A category's basis is its keys: `AInftyCategory.hom_keys` lists per
object pair the interned keys of its hom basis, and nothing else stores the
basis.  Its structure is given on those keys (`KeyedOps`): a keyed mu (a
key tuple to its (key, coeff) terms), a degree lookup, and `decode` and
`encode` between keys and basis generators.  The checkers walk the
composable key tuples of `hom_keys`, or the groups `KeyedOps.linked_groups`
yields when a category declares a reduced enumeration, and run one
residual kernel, `_relation_terms`, on them; they decode only the witness.
A category's Generator-level `hom_basis`, `composable_tuples` and `mu_fn`
decode keys when called.  Tuples come in groups: a prefix of d - 1 keys
and the last keys completing it.  Per group the kernel computes the split
sign parities and the signed inner mu outputs of the splits inside the
prefix once; per last key it evaluates only the outer mu and the splits
touching that key.

Functors.  An `AInftyFunctor` maps source key tuples to target key terms
and declares its arity support.  `check_functor` evaluates the functor
equation through both categories' keyed mu, on the terms whose operations
all lie in their supports, and decodes only the witness; an arity with no
such term is certified zero by support and not enumerated.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .documents import SCHEMA_VERSION, Document, DocumentError, check, generator_id
from .gradedalg import Chain, Generator, accumulate, sign_pow
from .report import CheckReport, failed, passed


class CompositionError(ValueError):
    """Raised when an operation is evaluated on a non-composable tuple."""


@dataclass(frozen=True)
class KeyedOps:
    """A category's structure maps on the keys of its `hom_keys`, as the
    residual kernel runs them.

    `mu(keys)` gives the (key, coeff) terms of mu on a composable key tuple
    in composition order (empty when zero); `degree(key)` is a key's degree;
    `decode(key)` is the basis generator a key stands for, and
    `encode(gen)` the key of a basis generator.

    `linked_groups`, when given, is a reduced enumeration: `linked_groups(d)`
    yields (prefix, lasts) pairs, a tuple of d - 1 keys and a sequence of
    last keys, whose tuples prefix + (last,) are the composable length-d key
    tuples to visit, in `composable_tuples` order.  Without it the checkers
    visit every composable tuple of the category's `hom_keys`.

    `orbit` is the number of keys per slot that each key the enumeration
    yields stands for: a category whose relations commute with a
    translation of its keys (winding on the circle) yields one
    representative per translation orbit of those tuples, and a visited
    length-d tuple then decides orbit**d tuples.  It is 1 when every
    yielded tuple stands for itself.

    `linked`, when given, maps an arity d to the number of composable
    length-d tuples not certified zero by linkage: the tuples the groups
    stand for when some visited tuple also decides tuples that are not its
    translates (the twisted complexes' summand classes).  At an arity it
    leaves out, the groups stand for their visited tuples' orbits,
    visited * orbit**d.

    `translation`, when given, declares a winding on the keys:
    `translation(key)` is (k, key0) with key = t^k key0 and key0 the
    winding-0 translate.  The declaration is a premise for `check_ainfty`
    to verify on the entries it reads, not a fact it assumes.
    """

    mu: Callable[[tuple], Iterable[tuple[Hashable, int]]]
    degree: Callable[[Hashable], int]
    decode: Callable[[Hashable], Generator]
    encode: Callable[[Generator], Hashable]
    orbit: int = 1
    translation: Callable[[Hashable], tuple[int, Hashable]] | None = None
    linked_groups: Callable[[int], Iterable[tuple[tuple, Sequence]]] | None = None
    linked: Mapping[int, int] | None = None


@dataclass
class AInftyCategory:
    """Objects, based hom complexes and structure maps on interned keys.

    `hom_keys` maps each object pair to the keys of its hom basis, in basis
    order: the one stored basis.  `keyed` is the structure the checkers run
    on those keys; `hom_basis` and `composable_tuples` decode them when
    called.  `arities` is the support of mu; the checkers never consult mu
    outside it.  `mu_fn` is mu on basis generators in composition order,
    returning a Chain; when not given it is derived from `keyed`.
    """

    name: str
    objects: tuple
    hom_keys: Mapping[tuple, tuple]
    keyed: KeyedOps
    arities: frozenset[int]
    is_dg: bool = False
    mu_fn: Callable[[tuple[Generator, ...]], Chain] | None = None

    def __post_init__(self):
        self.arities = frozenset(self.arities)
        if self.mu_fn is None:
            ops = self.keyed
            self.mu_fn = lambda gens: Chain(
                {ops.decode(k): c for k, c in ops.mu(tuple(map(ops.encode, gens)))}
            )

    def hom_basis(self, a, b) -> tuple[Generator, ...]:
        return tuple(map(self.keyed.decode, self.hom_keys.get((a, b), ())))

    def supports(self, d: int) -> bool:
        """Whether mu_d can be nonzero."""
        return d in self.arities

    def composable_tuples(self, d: int) -> Iterator[tuple]:
        """All length-d composable basis tuples, lexicographic in the object
        path then in the per-slot basis order."""
        decode = self.keyed.decode
        for prefix, lasts in composable_paths(self.objects, self.hom_keys, d):
            gens = tuple(map(decode, prefix))
            for last in lasts:
                yield gens + (decode(last),)

    def kernel_ops(self) -> KeyedOps:
        """The keyed structure the checkers run."""
        return self.keyed

    def count_composable(self, d: int) -> int:
        """The number of tuples `composable_tuples(d)` yields, without
        enumerating them: the sum over object paths of the product of the
        hom-basis sizes along the path, summed one step at a time."""
        sizes = [[len(self.hom_keys.get((a, b), ())) for b in self.objects] for a in self.objects]
        ways = [1] * len(self.objects)
        for _ in range(d):
            ways = [
                sum(w * row[j] for w, row in zip(ways, sizes))
                for j in range(len(self.objects))
            ]
        return sum(ways)


def composable_paths(objects: tuple, hom: Mapping[tuple, tuple], d: int) -> Iterator[tuple]:
    """The length-d tuples of entries of `hom` (an object pair to a sequence)
    along every object path, lexicographic in the path then per slot, in
    groups: each prefix of d - 1 entries with the last slot completing it."""
    for path in itertools.product(objects, repeat=d + 1):
        slots = [hom.get((path[i], path[i + 1]), ()) for i in range(d)]
        if any(not s for s in slots):
            continue
        for prefix in itertools.product(*slots[:-1]):
            yield prefix, slots[-1]


def table_category(name: str, objects: tuple, bases: Mapping[tuple, Sequence[tuple[Any, int]]],
                   rows: Iterable[tuple[int, Sequence, Iterable[tuple[Any, int, int]]]],
                   is_dg: bool = False) -> tuple[AInftyCategory, dict[tuple, tuple]]:
    """A category whose mu is a sparse lookup table on interned keys, and
    that table, a key tuple in composition order to its (key, coeff) terms.

    `bases` maps an object pair to the (gid, degree) of its basis
    generators, and `rows` gives the table as (d, input gids, output (gid,
    degree, coeff) terms), a gid as itself or in its JSON form.  A key is a
    generator's position in the bases; absent tuples are zero, and the
    arity support is the arities with a nonzero entry.  Rejected: a gid
    listed twice, rows that are non-composable or name a gid in no basis,
    outputs that are not basis generators, and outputs that break the
    degree rule |mu_d(x_1, ..., x_d)| = 2 - d + |x_1| + ... + |x_d|.
    """
    by_key = [Generator(gid_from_json(gid), degree)
              for basis in bases.values() for gid, degree in basis]
    key_of = {gen.gid: key for key, gen in enumerate(by_key)}
    if len(key_of) != len(by_key):
        raise ValueError("a generator gid is listed twice in the hom bases")
    positions = iter(range(len(by_key)))
    hom_keys = {pair: tuple(itertools.islice(positions, len(basis)))
                for pair, basis in bases.items()}
    pair_of = [pair for pair, keys in hom_keys.items() for _ in keys]
    degree_of = [gen.degree for gen in by_key]

    def key_for(gid) -> int | None:
        try:  # a JSON list holding no list is its gid's tuple, read without recursion
            return key_of.get(tuple(gid) if type(gid) is list else gid)
        except TypeError:
            return key_of.get(gid_from_json(gid))

    def encode(gen: Generator) -> int:
        key = key_of.get(gen.gid)
        if key is None:
            raise CompositionError(f"gid {gen.gid} not in any hom basis")
        if by_key[key] != gen:
            raise CompositionError(
                f"generator {gen.gid} of degree {gen.degree} is not a basis generator")
        return key

    terms: dict[tuple, tuple[tuple[int, int], ...]] = {}
    for d, gids, output in rows:
        if len(gids) != d:
            raise ValueError(f"arity-{d} table entry with {len(gids)} inputs")
        keys = tuple(map(key_for, gids))
        if None in keys:
            gid = gid_from_json(gids[keys.index(None)])
            raise CompositionError(f"gid {gid} not in any hom basis")
        if not keys or any(pair_of[k1][1] != pair_of[k2][0] for k1, k2 in zip(keys, keys[1:])):
            raise CompositionError(f"non-composable tuple {list(map(gid_from_json, gids))}")
        expected = 2 - d + sum(map(degree_of.__getitem__, keys))
        out: dict[int, int] = {}
        for gid, degree, coeff in output:
            key = key_for(gid)
            if key is None or degree_of[key] != degree:
                raise CompositionError(
                    f"mu output {gid_from_json(gid)} of degree {degree} is not a basis generator")
            if degree != expected:
                raise ValueError(
                    f"mu_{d} output {gid_from_json(gid)} has degree {degree}, expected {expected}")
            out[key] = coeff
        terms[keys] = tuple((key, coeff) for key, coeff in out.items() if coeff)
    cat = AInftyCategory(
        name, objects, hom_keys,
        KeyedOps(lambda keys: terms.get(keys, ()), degree_of.__getitem__,
                 by_key.__getitem__, encode),
        frozenset(len(keys) for keys, out in terms.items() if out), is_dg,
    )
    return cat, terms


def mu2_shifted(
    mu2: Callable[[Chain, Chain], Chain],
    s2: Chain,
    s1: Chain,
    shifts: tuple[int, int, int],
) -> Chain:
    """Composition of morphisms between shifted objects.

    For s1 in Hom(q0[m0], q1[m1]) and s2 in Hom(q1[m1], q2[m2]), given by
    underlying (unshifted) chains, returns

        (-1)**((deg s2 + 1) * (m1 - m0)) mu2(s2, s1)

    as an underlying chain of Hom(q0[m0], q2[m2]); degrees in the sign are
    the unshifted ones.
    """
    m0, m1, m2 = shifts
    acc: dict[Generator, int] = {}
    for g2, c2 in s2.items():
        sgn = sign_pow((g2.degree + 1) * (m1 - m0))
        accumulate(acc, mu2(Chain.of(g2), s1).items(), sgn * c2)
    return Chain.from_sums(acc)


# ---------------------------------------------------------------------------
# Relation checkers.
# ---------------------------------------------------------------------------

def admissible_splits(
    d: int, inner: Iterable[int], outer: Iterable[int]
) -> tuple[tuple[int, int], ...]:
    """The splits (d_2, k) of an arity-d relation, in the order the checkers
    sum them, whose inner arity d_2 lies in `inner` and whose outer arity
    d - d_2 + 1 lies in `outer`."""
    return tuple(
        (d2, k)
        for d2 in range(1, d + 1)
        if d2 in inner and d - d2 + 1 in outer
        for k in range(d - d2 + 1)
    )


def _prefix_parities(prefix: tuple, degree: Callable[[Hashable], int]) -> list[int]:
    """The parity of the relation's sign (-1)**(k + |x_1| + ... + |x_k|) on
    an inner operation at slot k, for k <= len(prefix): every slot a split
    of prefix + (last,) can insert at."""
    out = [0]
    for key in prefix:
        out.append((out[-1] + 1 + degree(key)) & 1)
    return out


def _relation_terms(mu, degree, prefix: tuple, lasts: Iterable, splits):
    """The residual kernel: the quadratic relation on each composable key
    tuple prefix + (last,), summed over the given splits; returns the first
    (last, residual dict) that is nonzero, else None.  `mu` maps a key tuple
    to its (key, coeff) terms; `degree` is the degree of a key."""
    n = len(prefix)
    parity = _prefix_parities(prefix, degree)
    inside = []  # (signed coeff, outer keys but the last) per inner output
    touching = []  # (sign, inner keys but the last, outer head)
    for d2, k in splits:
        sgn = -1 if parity[k] else 1
        if k + d2 <= n:
            head, tail = prefix[:k], prefix[k + d2:]
            for key, coeff in mu(prefix[k:k + d2]):
                inside.append((sgn * coeff, head + (key,) + tail))
        else:
            touching.append((sgn, prefix[k:], prefix[:k]))
    for last in lasts:
        acc: dict = {}
        for c, keys in inside:
            for ok, oc in mu(keys + (last,)):
                # accumulate, inlined: these loops run once per mu output
                new = acc.get(ok, 0) + c * oc
                if new:
                    acc[ok] = new
                else:
                    acc.pop(ok, None)
        for sgn, inner, head in touching:
            for key, coeff in mu(inner + (last,)):
                c = sgn * coeff
                for ok, oc in mu(head + (key,)):
                    new = acc.get(ok, 0) + c * oc
                    if new:
                        acc[ok] = new
                    else:
                        acc.pop(ok, None)
        if acc:
            return last, acc
    return None


def ainfty_residual(cat: AInftyCategory, gens: tuple[Generator, ...]) -> Chain:
    """The quadratic A-infinity residual on one composable tuple, summed
    over the splits admissible for the category's support."""
    ops = cat.kernel_ops()
    keys = tuple(map(ops.encode, gens))
    splits = admissible_splits(len(gens), cat.arities, cat.arities)
    found = _relation_terms(ops.mu, ops.degree, keys[:-1], keys[-1:], splits)
    return Chain({ops.decode(k): c for k, c in found[1].items()} if found else None)


def _in_winding_class(terms, translation, shift: int) -> dict:
    """Terms on keys as terms on (winding-0 key, winding - shift)."""
    out: dict = {}
    for key, coeff in terms:
        k, key0 = translation(key)
        cls = key0, k - shift
        out[cls] = out.get(cls, 0) + coeff
    return {cls: c for cls, c in out.items() if c} if 0 in out.values() else out


def _verified_translation(cat: AInftyCategory, ops: KeyedOps, max_d: int):
    """(ops visiting one representative per translation orbit, the number of
    entries verified), or None when the premise fails; see `check_ainfty`."""
    translation, mu = ops.translation, ops.mu
    if translation is None or not cat.arities <= {1, 2}:
        return None
    hom = cat.hom_keys
    reps, sizes = {}, set()
    for pair, keys in hom.items():
        orbits: dict = {}
        for key in keys:
            key0 = translation(key)[1]
            if ops.degree(key0) != ops.degree(key):
                return None
            orbits[key0] = orbits.get(key0, 0) + 1
        if not set(orbits) <= set(keys):
            return None
        reps[pair] = tuple(orbits)
        sizes.update(orbits.values())
    if len(sizes) > 1:
        return None

    read: dict[tuple, tuple] = {}  # each entry read, to its terms
    classes: dict[tuple, dict] = {}  # each normalised entry, to its class

    def in_class(entry: tuple) -> bool:
        """Whether mu of `entry` is the translate of its normalised entry."""
        terms = read[entry] = tuple(mu(entry))
        shift, normal = 0, ()
        for key in entry:
            k, key0 = translation(key)
            shift += k
            normal += (key0,)
        want = classes.get(normal)
        if want is None:
            want = classes[normal] = _in_winding_class(mu(normal), translation, 0)
        return _in_winding_class(terms, translation, shift) == want

    # the inner entries on the window, with their outputs per hom pair
    used = {(d2, d - d2 + 1) for d in range(1, max_d + 1)
            for d2, _k in admissible_splits(d, cat.arities, cat.arities)}
    inner = {d2 for d2, _d1 in used}
    outputs: dict[tuple[int, tuple], dict] = {}  # (inner arity, hom pair) -> keys
    for (a, b), keys in hom.items():
        entries = [((x,), (a, b)) for x in keys] if 1 in inner else []
        if 2 in inner:
            entries += [((x1, x2), (a, c)) for c in cat.objects
                        for x2 in hom.get((b, c), ()) for x1 in keys]
        for entry, pair in entries:
            if not in_class(entry):
                return None
            outputs.setdefault((len(entry), pair), {}).update(
                dict.fromkeys(y for y, _c in read[entry]))
    # the outer entries: each output alone or beside a window key
    for (d2, (a, b)), ys in outputs.items():
        if not {translation(y)[1] for y in ys} <= set(reps.get((a, b), ())):
            return None
        for d1 in {d1 for i, d1 in used if i == d2}:
            if d1 == 1:
                entries = [(y,) for y in ys]
            else:
                entries = [(y, x) for c in cat.objects for x in hom.get((b, c), ()) for y in ys]
                entries += [(x, y) for c in cat.objects for x in hom.get((c, a), ()) for y in ys]
            for entry in entries:
                if entry not in read and not in_class(entry):
                    return None

    def linked_groups(d: int):
        return composable_paths(cat.objects, reps, d)

    return replace(ops, linked_groups=linked_groups, orbit=max(sizes, default=1)), len(read)


def check_ainfty(
    cat: AInftyCategory, max_d: int, name: str | None = None
) -> CheckReport:
    """Verify the A-infinity relations on every composable tuple of length
    <= max_d; the witness is the first failing tuple in lexicographic order.

    Only arities with an admissible split are enumerated, and there only the
    tuples of the groups `composable_paths` makes of `hom_keys`, or that
    `kernel_ops().linked_groups` yields when declared, are visited, one
    kernel call per group.  `tuples_checked` counts every composable
    tuple covered; `per_arity` splits it into `enumerated` and
    `certified_zero_by_support`.  Of the enumerated tuples, each visited
    one decides its whole translation orbit, `orbit**d` tuples
    (`KeyedOps.orbit`): the translates not visited are given as
    `certified_by_translation`, the linked tuples (`KeyedOps.linked`) in no
    visited orbit as `certified_by_relabelling`, and the rest as
    `certified_zero_by_linkage`.  So `enumerated` is the sum of the three
    and the visited tuples.

    A category whose keyed ops declare a `translation` is first offered
    the verified-translation certificate (see the module docstring);
    `verified_entries` counts the entries it checked, 0 when the full
    enumeration ran.
    """
    name = name or f"ainfty({cat.name})"
    ops = cat.kernel_ops()
    certified = _verified_translation(cat, ops, max_d)
    if certified is not None:
        rep = _check_keyed(cat, *certified, max_d, name)
        if rep.ok:
            return rep
    return _check_keyed(cat, ops, 0, max_d, name)


def _check_keyed(cat: AInftyCategory, ops: KeyedOps, verified: int, max_d: int,
                 name: str) -> CheckReport:
    """`check_ainfty` on the groups of `ops`, `verified` entries behind them."""
    mu, degree = ops.mu, ops.degree
    checked = 0
    per_arity: dict[int, dict[str, int]] = {}
    for d in range(1, max_d + 1):
        composable = cat.count_composable(d)
        checked += composable
        splits = admissible_splits(d, cat.arities, cat.arities)
        if not splits:
            per_arity[d] = {"enumerated": 0, "certified_zero_by_support": composable,
                            "certified_zero_by_linkage": 0, "certified_by_translation": 0,
                            "certified_by_relabelling": 0}
            continue
        visited = 0
        groups = (ops.linked_groups(d) if ops.linked_groups
                  else composable_paths(cat.objects, cat.hom_keys, d))
        for prefix, lasts in groups:
            found = _relation_terms(mu, degree, prefix, lasts, splits)
            if found is None:
                visited += len(lasts)
                continue
            last, acc = found
            decode = ops.decode
            return failed(
                name,
                {
                    "tuple": [decode(key).gid for key in prefix + (last,)],
                    "d": d,
                    "residual": repr(Chain({decode(k): c for k, c in acc.items()})),
                },
            )
        covered = visited * ops.orbit ** d
        linked = ops.linked.get(d, covered) if ops.linked else covered
        per_arity[d] = {"enumerated": composable, "certified_zero_by_support": 0,
                        "certified_zero_by_linkage": composable - linked,
                        "certified_by_translation": covered - visited,
                        "certified_by_relabelling": linked - covered}
    return passed(name, tuples_checked=checked, max_d=max_d, per_arity=per_arity,
                  verified_entries=verified)


@dataclass
class AInftyFunctor:
    """Multilinear components F_d from a source category into a DG target,
    on the two categories' kernel keys.

    `components(keys)` receives a composable tuple of source keys in
    composition order and returns the (key, coeff) terms of F_d on it in
    hom(object_map[L_0], object_map[L_d]) of the target.  `arities` is the
    support of F: `check_functor` never consults `components` outside it.
    """

    source: AInftyCategory
    target: AInftyCategory
    object_map: Mapping
    components: Callable[[tuple], Iterable[tuple[Hashable, int]]]
    arities: frozenset[int]
    name: str = "F"


def check_functor(
    F: AInftyFunctor, max_d: int, name: str | None = None
) -> CheckReport:
    """Verify the A-infinity functor equation, LHS minus RHS, on every
    composable source tuple of length <= max_d; the witness is the first
    failing tuple in lexicographic order.  `tuples_checked` counts every
    composable tuple, and `per_arity` splits it into `enumerated` and
    `certified_zero_by_support`: an arity with no term whose operations all
    lie in their supports is counted, not enumerated."""
    name = name or f"functor({F.name})"
    src, tgt = F.source, F.target
    if not tgt.is_dg:
        raise ValueError("functor target must be a DG category (mu_{>=3} = 0)")
    sops, tops = src.kernel_ops(), tgt.kernel_ops()
    smu, tmu, degree, comp, support = sops.mu, tops.mu, sops.degree, F.components, F.arities
    checked = 0
    per_arity: dict[int, dict[str, int]] = {}
    for d in range(1, max_d + 1):
        composable = src.count_composable(d)
        checked += composable
        splits = admissible_splits(d, src.arities, F.arities)
        mu1 = d in support and tgt.supports(1)
        cuts = [r for r in range(1, d) if r in support and d - r in support and tgt.supports(2)]
        if not (splits or mu1 or cuts):
            per_arity[d] = {"enumerated": 0, "certified_zero_by_support": composable}
            continue
        for prefix, lasts in composable_paths(src.objects, src.hom_keys, d):
            parity = _prefix_parities(prefix, degree)
            for last in lasts:
                keys = prefix + (last,)
                acc: dict = {}
                for d2, k in splits:
                    sgn = -1 if parity[k] else 1
                    head, tail = keys[:k], keys[k + d2:]
                    for key, coeff in smu(keys[k:k + d2]):
                        accumulate(acc, comp(head + (key,) + tail), sgn * coeff)
                if mu1:
                    for key, coeff in comp(keys):
                        accumulate(acc, tmu((key,)), -coeff)
                for r in cuts:
                    later = tuple(comp(keys[r:]))
                    for k1, c1 in comp(keys[:r]):
                        for k2, c2 in later:
                            accumulate(acc, tmu((k1, k2)), -c1 * c2)
                if acc:
                    residual = Chain({tops.decode(k): c for k, c in acc.items()})
                    gids = [sops.decode(key).gid for key in keys]
                    return failed(name, {"tuple": gids, "d": d, "residual": repr(residual)})
        per_arity[d] = {"enumerated": composable, "certified_zero_by_support": 0}
    return passed(name, tuples_checked=checked, max_d=max_d, per_arity=per_arity)


# ---------------------------------------------------------------------------
# JSON round-trip for table-backed categories.
# ---------------------------------------------------------------------------

def gid_to_json(gid: Any) -> Any:
    if isinstance(gid, tuple):
        return [gid_to_json(x) for x in gid]
    return gid


def gid_from_json(obj: Any) -> Any:
    if isinstance(obj, list):
        return tuple(gid_from_json(x) for x in obj)
    return obj


def chain_to_json(chain: Chain) -> list[dict]:
    rows = [
        {"gen": gid_to_json(g.gid), "degree": g.degree, "coeff": c}
        for g, c in chain.items()
    ]
    rows.sort(key=lambda r: json.dumps(r["gen"]))
    return rows


def chain_from_json(rows: list[dict]) -> Chain:
    terms = {
        Generator(gid_from_json(r["gen"]), r["degree"]): int(r["coeff"]) for r in rows
    }
    return Chain(terms)


def category_to_json(
    cat: AInftyCategory, terms: Mapping[tuple, Iterable[tuple[Hashable, int]]],
    extra: dict | None = None,
) -> dict:
    """The ainfty_category document of `cat` with the mu table `terms` on
    keys of its `hom_keys`, a key tuple in composition order to its (key,
    coeff) terms: the nonzero entries by arity, then by the JSON text of
    their inputs.  Each key's JSON id and text are rendered once."""
    ops, objects = cat.keyed, list(cat.objects)
    ids = {key: gid_to_json(ops.decode(key).gid)
           for keys in cat.hom_keys.values() for key in keys}
    text = {key: json.dumps(gid) for key, gid in ids.items()}
    basis = [{"source": objects.index(a), "target": objects.index(b),
              "generators": [{"id": ids[key], "degree": ops.degree(key)}
                             for key in cat.hom_keys[(a, b)]]}
             for a, b in sorted(cat.hom_keys, key=lambda pair: tuple(map(objects.index, pair)))]
    # a row's text is json.dumps of its inputs' JSON ids, joined from theirs
    rows = sorted((len(keys), "[" + ", ".join(map(text.__getitem__, keys)) + "]", keys, out)
                  for keys, out in terms.items() if out)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "ainfty_category",
        "name": cat.name,
        "is_dg": cat.is_dg,
        "objects": [gid_to_json(o) for o in objects],
        "basis": basis,
        "mu": [{"d": d, "inputs": [ids[key] for key in keys],
                "output": [{"gen": ids[key], "degree": ops.degree(key), "coeff": coeff}
                           for key, coeff in sorted(out, key=lambda term: text[term[0]])]}
               for d, _text, keys, out in rows],
    }
    if extra:
        doc.update(extra)
    return doc


CHAIN = [{"gen": generator_id, "degree": int, "coeff": int}]
CATEGORY = Document("ainfty_category", {
    "name": str, "is_dg?": bool, "objects": [generator_id],
    "basis": [{"source": int, "target": int,
               "generators": [{"id": generator_id, "degree": int}]}],
    "mu": [{"d": int, "inputs": [generator_id], "output": CHAIN}],
})


def category_from_json(
    data: dict, where: str = "ainfty_category"
) -> tuple[AInftyCategory, dict[tuple, tuple[tuple[int, int], ...]]]:
    """An ainfty_category document's category and mu table, read in one
    pass into keys by `table_category`; what the document or the table
    rejects raises `DocumentError` at `where`."""
    check(data, CATEGORY, where)
    objects = tuple(gid_from_json(o) for o in data["objects"])
    bases: dict[tuple, list[tuple[Any, int]]] = {}
    for i, row in enumerate(data["basis"]):
        ends = (row["source"], row["target"])
        if not all(0 <= end < len(objects) for end in ends):
            raise DocumentError(f"{where}.basis[{i}]: names an unknown object")
        bases[tuple(objects[end] for end in ends)] = [
            (g["id"], g["degree"]) for g in row["generators"]]
    rows = ((row["d"], row["inputs"], [(t["gen"], t["degree"], t["coeff"]) for t in row["output"]])
            for row in data["mu"])
    try:
        return table_category(data["name"], objects, bases, rows, is_dg=data.get("is_dg", False))
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc
