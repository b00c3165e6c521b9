"""The support-driven A-infinity and functor checkers against exhaustive
references.

The references below evaluate every split of every composable tuple on
Generators, through the category's raw `mu_fn` (and for the functor every
cut too), ignoring the declared arity supports and the summand linkage, so
they also check that those declarations are true.
"""

import dataclasses
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from floerloops.ainfty import (
    _verified_translation,
    ainfty_residual,
    check_ainfty,
    check_functor,
    composable_paths,
)
from floerloops.cli import MUTATIONS
from floerloops.cylinder import (
    TWISTS,
    CylinderGeometry,
    build_F_object,
    cylinder_category,
    functor_F,
    pontryagin_target,
)
from floerloops.gradedalg import Chain, Generator, sign_pow
from floerloops.pontryagin import (
    MutatedPathModel,
    circle_model,
    leibniz_witness_model,
    path_model_category,
    validate_path_model,
)
from floerloops.twisted import (
    ShiftedObject,
    TwistedComplex,
    check_tw_dg,
    matrix_entry_degree,
    synthetic_twisted_complexes,
    tw_category,
    tw_mu1,
    tw_mu2,
    validate_twisted,
)
from gauges import gauged, gauged_functor, winding_parity, winding_parity_functor
from tables import category_from_tables


def exhaustive_residual(cat, gens):
    acc = Chain.zero()
    d = len(gens)
    for d2 in range(1, d + 1):
        for k in range(d - d2 + 1):
            sgn = sign_pow(k + sum(g.degree for g in gens[:k]))
            inner = cat.mu_fn(gens[k:k + d2])
            for gen, coeff in inner.items():
                outer = cat.mu_fn(gens[:k] + (gen,) + gens[k + d2:])
                acc = acc + outer.scale(sgn * coeff)
    return acc


def exhaustive_check(cat, max_d):
    """(witness or None, number of tuples) over every composable tuple."""
    count = 0
    for d in range(1, max_d + 1):
        for gens in cat.composable_tuples(d):
            count += 1
            residual = exhaustive_residual(cat, gens)
            if not residual.is_zero():
                witness = {"tuple": [g.gid for g in gens], "d": d, "residual": repr(residual)}
                return witness, count
    return None, count


def assert_agrees(cat, max_d):
    rep = check_ainfty(cat, max_d)
    witness, count = exhaustive_check(cat, max_d)
    assert rep.witness == witness
    if rep.ok:
        assert rep.details["tuples_checked"] == count
    return rep


RATIONALS = st.fractions(min_value=0, max_value=1, max_denominator=6).filter(lambda q: q < 1)


@st.composite
def small_geometries(draw):
    c = draw(st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=4))
    fibers = draw(st.lists(RATIONALS, min_size=1, max_size=2, unique=True))
    return CylinderGeometry(c, tuple(fibers))


@settings(max_examples=12, deadline=None)
@given(
    g=small_geometries(),
    twist=st.sampled_from(sorted(TWISTS)),
    parity=st.booleans(),
    flips=st.sets(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(-4, 4))),
)
def test_support_checker_matches_exhaustive_reference(g, twist, parity, flips):
    n = g.nfibers()
    tokens = {("x", a, b, w): -1 for a, b, w in flips if a < n and b < n}
    cat = cylinder_category(g, 1, twist=twist)
    if parity:
        cat = winding_parity(cat)
    rep = assert_agrees(gauged(cat, tokens), 4)
    assert rep.ok == (not parity)


def test_mu2_sign_witness_matches_reference():
    g = CylinderGeometry(Fraction(1), (Fraction(0),))
    rep = assert_agrees(MUTATIONS["mu2-sign"][1](cylinder_category(g, 1)), 4)
    assert not rep.ok and rep.witness["d"] == 3


def exhaustive_functor_residual(F, target_mu, gens):
    """LHS minus RHS of the functor equation on one composable tuple of
    source generators: every split through the source's `mu_fn`, every cut
    through `target_mu`, F on Generators through its keyed components."""
    sops, tops = F.source.kernel_ops(), F.target.kernel_ops()

    def apply(gs):
        return Chain({tops.decode(k): c for k, c in F.components(tuple(map(sops.encode, gs)))})

    acc = Chain.zero()
    d = len(gens)
    for d2 in range(1, d + 1):
        for k in range(d - d2 + 1):
            sgn = sign_pow(k + sum(g.degree for g in gens[:k]))
            for gen, coeff in F.source.mu_fn(gens[k:k + d2]).items():
                acc = acc + apply(gens[:k] + (gen,) + gens[k + d2:]).scale(sgn * coeff)
    for gen, coeff in apply(gens).items():
        acc = acc - target_mu((gen,)).scale(coeff)
    for r in range(1, d):
        for g1, c1 in apply(gens[:r]).items():
            for g2, c2 in apply(gens[r:]).items():
                acc = acc - target_mu((g1, g2)).scale(c1 * c2)
    return acc


def exhaustive_functor_check(F, target_mu, max_d):
    """(witness or None, number of tuples) over every composable tuple."""
    count = 0
    for d in range(1, max_d + 1):
        for gens in F.source.composable_tuples(d):
            count += 1
            residual = exhaustive_functor_residual(F, target_mu, gens)
            if not residual.is_zero():
                witness = {"tuple": [g.gid for g in gens], "d": d, "residual": repr(residual)}
                return witness, count
    return None, count


def flip_f1(F, gid):
    """F with the sign of F^1 on the chord `gid` negated."""
    ops = F.source.kernel_ops()

    def components(keys):
        out = F.components(keys)
        if len(keys) == 1 and ops.decode(keys[0]).gid == gid:
            return tuple((k, -c) for k, c in out)
        return out

    return dataclasses.replace(F, components=components)


FUNCTOR_MUTATIONS = {
    "none": lambda F: F,
    "f1-zero": MUTATIONS["f1-zero"][1],
    "f1-flip": lambda F: flip_f1(F, ("x", 0, 0, 1)),
}


@settings(max_examples=12, deadline=None)
@given(
    g=small_geometries(),
    twist=st.sampled_from(sorted(TWISTS)),
    parity=st.booleans(),
    flips=st.sets(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(-4, 4))),
    mutation=st.sampled_from(sorted(FUNCTOR_MUTATIONS)),
)
@example(g=CylinderGeometry(Fraction(1), (Fraction(0),)), twist="none", parity=False,
         flips=set(), mutation="f1-zero")
@example(g=CylinderGeometry(Fraction(1, 2), (Fraction(0), Fraction(1, 3))), twist="constant",
         parity=False, flips={(0, 1, 1)}, mutation="f1-flip")
@example(g=CylinderGeometry(Fraction(1), (Fraction(0),)), twist="none", parity=True,
         flips=set(), mutation="none")
def test_functor_checker_matches_exhaustive_reference(g, twist, parity, flips, mutation):
    # the target's mu in the reference is the matrix one, independent of
    # the interned tables the keyed checker reads
    n = g.nfibers()
    tokens = {("x", a, b, w): -1 for a, b, w in flips if a < n and b < n}
    F, model, objs = functor_F(g, 1, twist=twist)
    if parity:
        F = winding_parity_functor(F)
    F = FUNCTOR_MUTATIONS[mutation](gauged_functor(F, tokens))
    rep = check_functor(F, 3)
    witness, count = exhaustive_functor_check(F, matrix_category(model, objs, 1).mu_fn, 3)
    assert rep.witness == witness
    assert rep.ok == (not parity and mutation == "none")
    if rep.ok:
        assert rep.details["tuples_checked"] == count


def test_tuples_checked_counts_every_composable_tuple(three_fibers):
    cm = circle_model(2)
    for cat, max_d in (
        (cylinder_category(three_fibers, 1), 4),
        (tw_category(cm, synthetic_twisted_complexes(cm, "n")[:3], window=1), 3),
    ):
        rep = check_ainfty(cat, max_d)
        assert rep.ok
        total = sum(len(list(cat.composable_tuples(d))) for d in range(1, max_d + 1))
        assert rep.details["tuples_checked"] == total
        for d, counts in rep.details["per_arity"].items():
            assert counts["enumerated"] + counts["certified_zero_by_support"] == cat.count_composable(d)


def test_cylinder_enumerates_only_arity_three(one_fiber):
    rep = check_ainfty(cylinder_category(one_fiber, 2), 4)
    enumerated = {d: c["enumerated"] for d, c in rep.details["per_arity"].items()}
    assert enumerated == {1: 0, 2: 0, 3: 5 ** 3, 4: 0}
    assert rep.details["per_arity"][4]["certified_zero_by_support"] == 5 ** 4


def test_functor_counts_arities_without_terms(one_fiber):
    # F has support {1} and the cylinder {2}: arities 3 and 4 of the
    # functor equation have no term and are counted, not enumerated
    F, _model, _objs = functor_F(one_fiber, 2)
    rep = check_functor(F, 4)
    assert rep.ok and rep.details["tuples_checked"] == 5 + 5 ** 2 + 5 ** 3 + 5 ** 4
    per_arity = rep.details["per_arity"]
    assert {d: c["enumerated"] for d, c in per_arity.items()} == {1: 5, 2: 25, 3: 0, 4: 0}
    assert per_arity[3]["certified_zero_by_support"] == 5 ** 3
    assert per_arity[4]["certified_zero_by_support"] == 5 ** 4


def full_path(model):
    """The circle model behind a wrapper that flips nothing: the same
    operations, but `tw_category` visits every winding instead of one
    representative per translation orbit (it still visits one
    representative per summand class)."""
    return MutatedPathModel(model, (None, None))


def summand_linked(by_name, gens):
    """Whether a decoded pair of `tw_category` generators is linked by
    summand: i2 == j1 or (i2, j1) in the middle complex's connection."""
    _, _, _, middle, i2, _ = gens[0].gid
    j1 = gens[1].gid[2]
    return i2 == j1 or (i2, j1) in by_name[middle].D


def unreduced(cat, cxs):
    """`cat`, a `tw_category` on `cxs`, visiting every linked tuple: the
    enumeration with neither summand classes nor winding translation, built
    here from the decoded gids."""
    ops = cat.keyed
    by_name = {T.name: T for T in cxs}

    def linked_groups(d):
        for prefix, lasts in composable_paths(cat.objects, cat.hom_keys, d):
            if d == 2:
                first = ops.decode(prefix[0])
                lasts = [k for k in lasts if summand_linked(by_name, (first, ops.decode(k)))]
            yield prefix, lasts

    return dataclasses.replace(
        cat, keyed=dataclasses.replace(ops, linked_groups=linked_groups, orbit=1))


def test_linkage_skips_only_zero_relations():
    # on the unreduced enumeration; translation and summand classes skip
    # a superset, with the same linkage count (`assert_linked_enumeration`)
    cm = circle_model(2)
    cxs = synthetic_twisted_complexes(cm, "link")
    cat = unreduced(tw_category(cm, cxs, window=1), cxs)
    visited = set(flattened_groups(cat, 2))
    skipped = 0
    for gens in cat.composable_tuples(2):
        if gens not in visited:
            skipped += 1
            assert exhaustive_residual(cat, gens).is_zero()
    rep = check_ainfty(cat, 2)
    assert rep.ok
    assert skipped > 0
    assert rep.details["per_arity"][2]["certified_zero_by_linkage"] == skipped


def test_declared_support_is_authoritative():
    # a d = 1 relation fails on the table's mu_1; declared {2}, the
    # category passes, and check_ainfty never consults its mu_1
    a, b, c = Generator("a", 0), Generator("b", 1), Generator("c", 2)
    hom = {("O", "O"): (a, b, c)}
    tables = {1: {("a",): Chain.of(b), ("b",): Chain.of(c)}, 2: {("a", "a"): Chain.zero()}}
    cat = category_from_tables("t", ("O",), hom, tables)
    assert cat.arities == {1} and not check_ainfty(cat, 3).ok
    ops, arities = cat.kernel_ops(), []

    def mu(keys):
        arities.append(len(keys))
        return ops.mu(keys)

    declared = dataclasses.replace(cat, arities={2}, keyed=dataclasses.replace(ops, mu=mu))
    assert check_ainfty(declared, 3).ok
    assert set(arities) == {2}


@st.composite
def random_table_categories(draw):
    """One object, a generator in each degree -1..2, and random sparse mu_1,
    mu_2 and mu_3 tables of the right degrees; the relations generally fail,
    and every split of an arity <= 4 relation is admissible somewhere."""
    gens = tuple(Generator(f"g{deg}", deg) for deg in (-1, 0, 1, 2))
    by_degree = {g.degree: g for g in gens}
    tables: dict = {}
    for d in (1, 2, 3):
        for inputs in product(gens, repeat=d):
            out = by_degree.get(2 - d + sum(g.degree for g in inputs))
            coeff = draw(st.sampled_from((0, 0, 1, -1)))
            if out is not None and coeff:
                tables.setdefault(d, {})[tuple(g.gid for g in inputs)] = Chain.of(out, coeff)
    return category_from_tables("R", ("O",), {("O", "O"): gens}, tables)


@settings(max_examples=15, deadline=None)
@given(cat=random_table_categories())
def test_kernel_matches_exhaustive_residual_on_random_tables(cat):
    # every tuple through the kernel with a one-key group, then the grouped
    # checker's first witness
    for d in (1, 2, 3, 4):
        for gens in cat.composable_tuples(d):
            assert ainfty_residual(cat, gens) == exhaustive_residual(cat, gens)
    assert_agrees(cat, 4)


def summand_representatives(cxs):
    """The firsts of the summand classes, read off the complexes in summand
    order: the (name, i) first met with their in-class and with their
    out-class, and the linked (name, i2, j1) first met with their middle
    class (see `tw_category`)."""
    ins, middles, outs = {}, {}, {}
    for T in cxs:
        def at(i):
            return T.point_of(i), T.shift_of(i)

        for i in range(T.nsummands()):
            into = sorted((at(k), repr(c)) for (k, j), c in T.D.items() if j == i)
            out_of = sorted((at(j), repr(c)) for (k, j), c in T.D.items() if k == i)
            ins.setdefault((at(i), tuple(into)), (T.name, i))
            outs.setdefault((at(i), tuple(out_of)), (T.name, i))
            for j1 in range(T.nsummands()):
                if j1 == i or (i, j1) in T.D:
                    middles.setdefault((at(i), at(j1), repr(T.D.get((i, j1)))), (T.name, i, j1))
    return set(ins.values()), set(middles.values()), set(outs.values())


def assert_linked_enumeration(model, cxs, window):
    """The unreduced d=2 enumeration is the linked part of the composable
    product, decoded, in the same order.  Off the circle model (the full
    path) the keyed one is that restricted to the pairs whose first
    summand, middle pair and last summand each come first in their class;
    on the circle model itself it is restricted further to the pairs whose
    windings are both -window.  The counts split the linked pairs into the
    visited ones, their (2 window + 1)**2 translates and the relabelled
    rest."""
    by_name = {T.name: T for T in cxs}
    ins, middles, outs = summand_representatives(cxs)

    def representative(gens):
        _, a, i1, b, i2, _ = gens[0].gid
        _, _, j1, c, j2, _ = gens[1].gid
        return (a, i1) in ins and (b, i2, j1) in middles and (c, j2) in outs

    cat = tw_category(full_path(model), cxs, window=window)
    linked = [t for t in cat.composable_tuples(2) if summand_linked(by_name, t)]
    assert flattened_groups(unreduced(cat, cxs), 2) == linked
    keyed = flattened_groups(cat, 2)
    assert keyed == [t for t in linked if representative(t)]
    per_arity = check_ainfty(cat, 2).details["per_arity"][2]
    assert per_arity["enumerated"] - per_arity["certified_zero_by_linkage"] == len(linked)
    assert per_arity["certified_by_relabelling"] == len(linked) - len(keyed)
    assert per_arity["certified_by_translation"] == 0

    cat = tw_category(model, cxs, window=window)
    reduced = flattened_groups(cat, 2)
    assert reduced == [t for t in keyed if all(g.gid[5][3] == -window for g in t)]
    orbit = (2 * window + 1) ** 2
    per_arity = check_ainfty(cat, 2).details["per_arity"][2]
    assert per_arity["enumerated"] - per_arity["certified_zero_by_linkage"] == len(linked)
    assert per_arity["certified_by_translation"] == len(reduced) * (orbit - 1)
    assert per_arity["certified_by_relabelling"] == len(linked) - len(reduced) * orbit


@pytest.mark.parametrize("n", [1, 2, 3])
def test_summand_enumeration_is_the_linked_product(n):
    cm = circle_model(n)
    assert_linked_enumeration(cm, synthetic_twisted_complexes(cm, f"e{n}"), 1)


def test_summand_enumeration_on_acceptance_objects():
    g = CylinderGeometry(Fraction(1), (Fraction(0), Fraction(1, 3), Fraction(3, 4)))
    model = pontryagin_target(g)
    assert_linked_enumeration(model, [build_F_object(g, L, model) for L in range(3)], 2)


def flipped_battery(n, picks, flip):
    """The picked synthetic complexes over the circle model with the
    composition of one pair of path classes negated.  No two connection
    entries of the battery compose, so Maurer-Cartan never sees the flip."""
    base = circle_model(n)
    i, j, l, w1, w2 = flip
    model = MutatedPathModel(base, (("p", i % n, j % n, w1), ("p", j % n, l % n, w2)))
    battery = synthetic_twisted_complexes(base, "flip")
    picked = {p % len(battery) for p in picks}
    cxs = [TwistedComplex(model, T.summands, T.D, name=T.name)
           for idx, T in enumerate(battery) if idx in picked]
    assert all(validate_twisted(T).ok for T in cxs)
    return model, cxs


def matrix_category(model, cxs, window):
    """The twisted category with mu computed by `tw_mu1`/`tw_mu2` on
    one-entry matrices, independent of the interned tables."""
    cat = tw_category(model, cxs, window=window)
    by_name = {T.name: T for T in cxs}

    def parse(gen):
        _, n1, i1, n2, i2, base_gid = gen.gid
        Ta, Tb = by_name[n1], by_name[n2]
        base = Generator(base_gid, gen.degree - matrix_entry_degree(Ta, Tb, i1, i2, 0))
        return Ta, Tb, {(i1, i2): Chain.of(base)}

    def to_chain(Ta, Tb, matrix):
        return Chain({
            Generator(("m", Ta.name, i1, Tb.name, i2, g.gid),
                      matrix_entry_degree(Ta, Tb, i1, i2, g.degree)): c
            for (i1, i2), chain in matrix.items() for g, c in chain.items()
        })

    def mu_fn(gens):
        if len(gens) == 1:
            Ta, Tb, S = parse(gens[0])
            return to_chain(Ta, Tb, tw_mu1(Ta, Tb, S))
        if len(gens) == 2:
            (Ta, Tb, S1), (Tb2, Tc, S2) = parse(gens[0]), parse(gens[1])
            if Tb is not Tb2:
                return Chain.zero()
            return to_chain(Ta, Tc, tw_mu2(Ta, Tb, Tc, S2, S1))
        return Chain.zero()

    return dataclasses.replace(cat, name="matrix", mu_fn=mu_fn)


FLIPS = st.tuples(*[st.integers(0, 2)] * 3, *[st.integers(-2, 2)] * 2)


def near_copy(T, kind, at, name):
    """T under a new name: as it is ("renamed"), with summand `at`'s shift
    raised by one ("shift"; every summand's when `at` meets a connection
    entry, so that the entries keep shifted degree 1), or with one
    coefficient of connection entry `at` doubled ("coefficient"; just
    renamed when T has no connection)."""
    summands, D = list(T.summands), dict(T.D)
    if kind == "shift":
        i = at % len(summands)
        for k in ([i] if all(i not in e for e in D) else range(len(summands))):
            summands[k] = ShiftedObject(summands[k].base, summands[k].shift + 1)
    elif kind == "coefficient" and D:
        e = sorted(D)[at % len(D)]
        (gen, c), *rest = D[e].items()
        D[e] = Chain({gen: 2 * c, **dict(rest)})
    return TwistedComplex(T.model, summands, D, name=name)


@st.composite
def repeated_batteries(draw):
    """Up to 4 battery complexes over the circle model with renamed and
    near-miss copies, in any order, under one flipped composition or none,
    at most 6 summands in all: summand classes repeat within and across
    complexes, and the first of a class may be a copy."""
    n = draw(st.integers(1, 2))
    flip = draw(st.none() | FLIPS)
    if flip is None:
        model, cxs = circle_model(n), synthetic_twisted_complexes(circle_model(n), "rep")
    else:
        model, cxs = flipped_battery(n, range(9), flip)  # the whole battery
    cxs = [cxs[p] for p in draw(st.lists(st.integers(0, len(cxs) - 1), min_size=1, max_size=4,
                                         unique=True))]
    copies = st.tuples(st.integers(0, 3), st.sampled_from(("renamed", "shift", "coefficient")),
                       st.integers(0, 3))
    for k, (src, kind, at) in enumerate(draw(st.lists(copies, max_size=3))):
        T = cxs[src % len(cxs)]
        cxs.append(near_copy(T, kind, at, f"{T.name}-{kind}-{k}"))
    kept = []
    for T in draw(st.permutations(cxs)):
        if sum(U.nsummands() for U in kept) + T.nsummands() <= 6 or not kept:
            kept.append(T)
    return model, kept


@settings(max_examples=20, deadline=None)
@given(case=repeated_batteries())
@example(case=flipped_battery(2, {8}, (0, 1, 1, 2, 0)))
def test_tw_witness_matches_exhaustive_reference_under_flips(case):
    model, cxs = case
    witness, count = exhaustive_check(matrix_category(model, cxs, window=1), 2)
    # every complex, renamed copies too, so that whole complexes repeat
    rep = check_ainfty(tw_category(model, cxs, window=1), 2)
    assert (rep.ok, rep.witness) == (witness is None, witness)
    if rep.ok:
        assert rep.details["tuples_checked"] == count
    # as check-all runs it, a renamed copy is skipped: the same witness
    assert check_tw_dg(model, cxs, window=1).witness == witness


def shift_fault(cxs):
    """A reference fault on summand data, as a test of the gid of a tw mu_2
    output's first input: it runs between two summands of odd shift."""
    by_name = {T.name: T for T in cxs}

    def negated(gid):
        _, n1, i1, n2, i2, _ = gid
        return by_name[n1].shift_of(i1) % 2 == 1 == by_name[n2].shift_of(i2) % 2
    return negated


def coefficient_fault(cxs):
    """A reference fault on summand data, as a test of the gid of a tw mu_2
    output's first input: it starts at a summand with an incoming connection
    entry whose coefficients have an even sum."""
    by_name = {T.name: T for T in cxs}

    def negated(gid):
        _, n1, i1, _, _, _ = gid
        return any(j == i1 and sum(c for _, c in chain.items()) % 2 == 0
                   for (_, j), chain in by_name[n1].D.items())
    return negated


def middle_fault(cxs):
    """A reference fault on summand data, as a test of a tw mu_1 input's gid
    and one output term's gid: the input sits at block (i1, i2) of
    Hom(Ta, Tb) and the term at block (i1, k), where the connection entry
    Tb.D(i2, k) has coefficients of even sum.  A d = 2 relation on a pair
    at blocks (i1, i2), (j1, j2) reads such a term with k = j1, so this
    fault reads the middle pair's entry D(i2, j1)."""
    by_name = {T.name: T for T in cxs}

    def negated(gid, out):
        _, n1, i1, n2, i2, _ = gid
        _, _, j1, _, k, _ = out
        chain = by_name[n2].D.get((i2, k))
        return j1 == i1 and chain is not None and sum(c for _, c in chain.items()) % 2 == 0
    return negated


# Each fault reads only summand data that the summand classes keep, so the
# reduced enumeration must still find the exhaustive witness; a class key
# blind to that data (the shift of a summand without incoming entries, the
# chain of an incoming entry, the entry between a middle pair) misses it.
# A fault is the arity of the mu it negates and a factory of its test: on
# mu_2's first input, or on mu_1's input and one output term.
SUMMAND_FAULTS = {"shift": (2, shift_fault), "coefficient": (2, coefficient_fault),
                  "middle": (1, middle_fault)}


def summand_faulted(cat, cxs, fault):
    """`cat`, a `tw_category` on `cxs`, with the fault negating its keyed
    mu_2 outputs or mu_1 output terms."""
    arity, make = SUMMAND_FAULTS[fault]
    ops, negated = cat.keyed, make(cxs)

    def mu(keys):
        out = ops.mu(keys)
        if len(keys) != arity:
            return out
        gid = ops.decode(keys[0]).gid
        if arity == 1:
            return tuple((key, -c if negated(gid, ops.decode(key).gid) else c) for key, c in out)
        return tuple((key, -c) for key, c in out) if negated(gid) else out
    return dataclasses.replace(cat, mu_fn=None, keyed=dataclasses.replace(ops, mu=mu))


def summand_faulted_matrix(model, cxs, fault):
    """`matrix_category` with the fault negating its mu_2 outputs or mu_1
    output terms."""
    arity, make = SUMMAND_FAULTS[fault]
    cat, negated = matrix_category(model, cxs, window=1), make(cxs)
    mu_fn = cat.mu_fn

    def faulted(gens):
        out = mu_fn(gens)
        if len(gens) != arity:
            return out
        if arity == 1:
            return Chain({g: -c if negated(gens[0].gid, g.gid) else c for g, c in out.items()})
        return -out if negated(gens[0].gid) else out
    return dataclasses.replace(cat, mu_fn=faulted)


def fault_battery(fault):
    """Two complexes on the one-point circle whose second holds the first
    summand a fault breaks a relation at, in the class of a summand of the
    first under a key blind to what the fault reads: pair-0 with both
    shifts raised (summand 0, shift 1, beside single-0), or with its
    connection coefficient doubled (summand 1, beside pair-0's; the
    "middle" fault reads that battery too)."""
    cm = circle_model(1)
    battery = {T.name: T for T in synthetic_twisted_complexes(cm, "f")}
    pair = battery["f-pair-0"]
    if fault == "shift":
        return cm, [battery["f-single-0"], near_copy(pair, "shift", 0, "f-pair-raised")]
    return cm, [pair, near_copy(pair, "coefficient", 0, "f-pair-doubled")]


@pytest.mark.parametrize("fault", sorted(SUMMAND_FAULTS))
@settings(max_examples=20, deadline=None)
@given(case=repeated_batteries())
@example(case=fault_battery("shift"))
@example(case=fault_battery("coefficient"))
def test_tw_witness_matches_exhaustive_reference_under_summand_faults(fault, case):
    model, cxs = case
    witness, count = exhaustive_check(summand_faulted_matrix(model, cxs, fault), 2)
    rep = check_ainfty(summand_faulted(tw_category(model, cxs, window=1), cxs, fault), 2)
    assert (rep.ok, rep.witness) == (witness is None, witness)
    if rep.ok:
        assert rep.details["tuples_checked"] == count


@pytest.mark.parametrize("fault, first", [("shift", ("f-pair-raised", 0)),
                                          ("coefficient", ("f-pair-doubled", 1)),
                                          ("middle", ("f-pair-0", 0))],
                         ids=["shift", "coefficient", "middle"])
def test_summand_fault_breaks_a_relation(fault, first):
    # each fault is live, first at the summand its battery places
    model, cxs = fault_battery(fault)
    rep = check_ainfty(summand_faulted(tw_category(model, cxs, window=1), cxs, fault), 2)
    assert not rep.ok and rep.witness["tuple"][0][1:3] == first


def test_flipped_composition_fails_at_a_tw_relation():
    model, cxs = flipped_battery(2, {8}, (0, 1, 1, 2, 0))
    rep = check_tw_dg(model, cxs, window=1)
    assert not rep.ok and rep.witness["d"] == 2
    assert rep.witness["tuple"] == [
        ("m", "flip-quad-sparse", 1, "flip-quad-sparse", 2, ("p", 0, 1, 1)),
        ("m", "flip-quad-sparse", 2, "flip-quad-sparse", 2, ("p", 1, 1, 0)),
    ]


def renamed(T, name):
    return TwistedComplex(T.model, T.summands, T.D, name=name)


@pytest.mark.parametrize("case", ["maurer-cartan", "relation"])
def test_duplicate_complex_witness_names_the_first_copy(case):
    # a failing complex listed twice under two names: the witness is the one
    # it has alone, naming whichever copy comes first
    if case == "maurer-cartan":
        model, (T,), window = MUTATIONS["twisted-mc"][1](None)
    else:
        (model, (T,)), window = flipped_battery(2, {8}, (0, 1, 1, 2, 0)), 1
    alone = repr(check_tw_dg(model, [T], window=window).witness)
    for first, second in ((T, renamed(T, "later")), (renamed(T, "early"), T)):
        rep = check_tw_dg(model, [first, second], window=window)
        assert not rep.ok
        assert repr(rep.witness) == alone.replace(f"'{T.name}'", f"'{first.name}'")
        assert f"'{second.name}'" not in repr(rep.witness)


def test_duplicate_complexes_are_counted():
    cm = circle_model(2)
    battery = synthetic_twisted_complexes(cm, "dup")
    once = check_tw_dg(cm, battery, window=1)
    twice = check_tw_dg(cm, battery + [renamed(T, T.name + "-copy") for T in battery], window=1)
    assert once.ok and twice.ok
    assert (once.details["complexes"], once.details["duplicate_complexes"]) == (len(battery), 0)
    assert (twice.details["complexes"], twice.details["duplicate_complexes"]) == (len(battery),) * 2
    assert twice.details["per_arity"] == once.details["per_arity"]


def test_complexes_differing_in_connection_or_model_are_checked():
    # same summands as a valid complex, but another connection or another
    # model: neither is a copy, and each fails Maurer-Cartan
    model, (bad,), window = MUTATIONS["twisted-mc"][1](None)
    good = TwistedComplex(model, bad.summands, {**bad.D, (0, 2): -bad.D[(0, 2)]}, name="good")
    flipped = TwistedComplex(MutatedPathModel(model, ("a", "b")), good.summands, good.D,
                             name="flipped")
    assert check_tw_dg(model, [good], window=window).ok
    for other in (bad, flipped):
        rep = check_tw_dg(model, [good, other], window=window)
        assert not rep.ok and rep.witness["complex"] == other.name


def flattened_groups(cat, d):
    """The tuples `check_ainfty` visits at arity d, decoded: the declared
    groups, else every composable tuple of the category's keys."""
    ops = cat.kernel_ops()
    groups = (ops.linked_groups(d) if ops.linked_groups
              else composable_paths(cat.objects, cat.hom_keys, d))
    return [tuple(map(ops.decode, prefix + (last,))) for prefix, lasts in groups for last in lasts]


def two_object_table_category():
    a0, a1, f, g, b0 = (Generator(gid, 0) for gid in ("a0", "a1", "f", "g", "b0"))
    hom = {("A", "A"): (a0, a1), ("A", "B"): (f,), ("B", "A"): (g,), ("B", "B"): (b0,)}
    tables = {2: {("a0", "f"): Chain.of(f), ("f", "g"): Chain.of(a1)}}
    return category_from_tables("T", ("A", "B"), hom, tables)


def test_grouped_enumeration_flattens_to_composable_order(three_fibers):
    cases = [
        (cylinder_category(three_fibers, 3), (3,)),
        (path_model_category(circle_model(3), 2), (1, 2, 3)),
        (two_object_table_category(), (1, 2, 3)),
    ]
    for cat, arities in cases:
        for d in arities:
            assert flattened_groups(cat, d) == list(cat.composable_tuples(d))


def visited_tuples(details):
    """The tuples a passing check visited, from its `per_arity` counts."""
    return sum(
        c["enumerated"] - c["certified_zero_by_linkage"] - c["certified_by_translation"]
        - c["certified_by_relabelling"]
        for c in details["per_arity"].values()
    )


def counted_visits(cat, max_d):
    """(keyed mu calls, visited tuples) of one passing `check_ainfty` run."""
    ops = cat.kernel_ops()
    calls = 0

    def counting_mu(keys):
        nonlocal calls
        calls += 1
        return ops.mu(keys)

    cat.keyed = dataclasses.replace(ops, mu=counting_mu)
    rep = check_ainfty(cat, max_d)
    assert rep.ok
    return calls, visited_tuples(rep.details)


def test_grouped_kernel_work_on_acceptance_objects(three_fibers):
    # the tw-dg and ainfty inputs of an acceptance check-all; a kernel that
    # recomputed the per-prefix work per tuple made 6.05 and 4.0 calls
    _F, model, objs = functor_F(three_fibers, 3)
    cxs = list(objs) + synthetic_twisted_complexes(model, tag="syn")
    calls, visited = counted_visits(unreduced(tw_category(model, cxs, window=1), cxs), 2)
    assert visited == 221052 and calls <= 5.2 * visited
    # winding translation, one representative of each orbit of 3 keys (d=1)
    # and 9 pairs (d=2), and summand classes, one first summand, middle
    # pair and last summand per class (d=2), on all 13 complexes; with
    # translation alone these were 25,012 tuples and 133,952 calls
    calls, visited = counted_visits(tw_category(model, cxs, window=1), 2)
    assert visited == 4756 and calls == 27122
    # as check-all runs the tw-dg row: each fibre object F_a equals the
    # battery's single-a, so 10 of the 13 complexes are checked
    rep = check_tw_dg(model, cxs, window=1)
    assert (rep.details["complexes"], rep.details["duplicate_complexes"]) == (10, 3)
    distinct = [T for k, T in enumerate(cxs)
                if all((T.summands, T.D) != (U.summands, U.D) for U in cxs[:k])]
    assert [T.name for T in distinct] == [T.name for T in cxs if "single" not in T.name]
    # 15 in-, 17 middle and 16 out-classes: 529 d=1 tuples and 15 * 17 * 16
    # d=2 pairs (17,986 tuples and 99,176 calls with translation alone)
    ins, middles, outs = summand_representatives(distinct)
    assert (len(ins), len(middles), len(outs)) == (15, 17, 16)
    cat = tw_category(model, distinct, window=1)
    walked = sum(len(lasts) for d in (1, 2) for _, lasts in cat.keyed.linked_groups(d))
    calls, visited = counted_visits(cat, 2)
    assert walked == visited == visited_tuples(rep.details) == 529 + 15 * 17 * 16 == 4609
    assert calls == 26903
    # the report's partition of the 311,052 tuples
    assert rep.details["tuples_checked"] == 311052
    assert rep.details["per_arity"] == {
        1: {"enumerated": 1587, "certified_zero_by_support": 0, "certified_zero_by_linkage": 0,
            "certified_by_translation": 1058, "certified_by_relabelling": 0},
        2: {"enumerated": 309465, "certified_zero_by_support": 0,
            "certified_zero_by_linkage": 152352, "certified_by_translation": 32640,
            "certified_by_relabelling": 120393},
    }
    # verified translation: the 3,591 mu_2 entries the d=3 relation reads,
    # the 27 winding-0 pairs, and one tuple per object path (3**4 = 81 of
    # 27,783); the full enumeration made 87,318 calls
    calls, visited = counted_visits(cylinder_category(three_fibers, 3), 4)
    assert visited == 81 and calls == 3942
    calls, visited = counted_visits(without_translation(cylinder_category(three_fibers, 3)), 4)
    assert visited == 27783 and calls == 87318


@pytest.mark.parametrize("winding, entries", [(10, 1281), (20, 4961), (40, 19521)])
def test_verified_translation_work_grows_as_winding_squared(winding, entries):
    # the default config: the d=3 relation reads mu_2 on (2W+1)(6W+1)
    # pairs, one output in [-2W, 2W] beside one window key, and visits one
    # tuple (one object path); keyed mu calls are the entries, the one
    # winding-0 pair and the representative's 4
    assert entries == (2 * winding + 1) * (6 * winding + 1)
    cat = cylinder_category(CylinderGeometry(Fraction(1), (Fraction(0),)), winding)
    calls, visited = counted_visits(cat, 4)
    assert visited == 1 and calls == entries + 5
    rep = check_ainfty(cat, 4)
    assert rep.details["verified_entries"] == entries
    assert rep.details["per_arity"][3]["certified_by_translation"] == (2 * winding + 1) ** 3 - 1


def without_translation(cat):
    """`cat` with no declared winding translation: `check_ainfty` takes the
    full enumeration."""
    return dataclasses.replace(cat, keyed=dataclasses.replace(cat.keyed, translation=None))


def character_gauge(n, winding, pair_signs, s):
    """The tokens t_ab * s**w on every chord that the checks at `winding`
    read, inputs and outputs (|w| <= 3 winding); a gauge of this form keeps
    every mu_2 entry in its translation class."""
    return {("x", a, b, w): pair_signs[a * n + b] * s ** abs(w)
            for a in range(n) for b in range(n) for w in range(-3 * winding, 3 * winding + 1)}


@st.composite
def translated_inputs(draw):
    """A cylinder category on a random rational geometry, wrapped by one of
    four kinds of input, with the kind."""
    c = draw(st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=5))
    fibers = draw(st.lists(RATIONALS, min_size=1, max_size=3, unique=True))
    g, winding = CylinderGeometry(c, tuple(fibers)), draw(st.integers(1, 3))
    n = g.nfibers()
    cat = cylinder_category(g, winding, twist=draw(st.sampled_from(sorted(TWISTS))))
    kind = draw(st.sampled_from(["gauge", "tokens", "parity", "flip"]))
    if kind == "gauge":
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n * n, max_size=n * n))
        cat = gauged(cat, character_gauge(n, winding, signs, draw(st.sampled_from((1, -1)))))
    elif kind == "tokens":
        flips = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                       st.integers(-3 * winding, 3 * winding))))
        cat = gauged(cat, {("x", a, b, w): -1 for a, b, w in flips})
    elif kind == "parity":
        cat = winding_parity(cat)
    else:
        cat = MUTATIONS["mu2-sign"][1](cat)
    return kind, cat


@settings(max_examples=20, deadline=None)
@given(case=translated_inputs())
@example(case=("flip", MUTATIONS["mu2-sign"][1](
    cylinder_category(CylinderGeometry(Fraction(1), (Fraction(0),)), 1))))
def test_certified_path_agrees_with_full_path(case):
    kind, cat = case
    certified, full = check_ainfty(cat, 4), check_ainfty(without_translation(cat), 4)
    assert (certified.ok, certified.witness) == (full.ok, full.witness)
    if full.ok:
        assert certified.details["tuples_checked"] == full.details["tuples_checked"]
    assert full.ok == (kind in ("gauge", "tokens"))
    if kind == "gauge":
        assert certified.details["per_arity"][3]["certified_by_translation"] > 0
    if kind in ("parity", "flip"):
        # an entry the relation reads is out of its class
        assert _verified_translation(cat, cat.keyed, 4) is None


def assert_paths_agree(model, cxs, window):
    """`check_tw_dg` decides the same on the circle model (winding
    translation) as on its full-path wrapper, with the same witness and
    counts, and linkage certifies whole translation orbits."""
    reduced = check_tw_dg(model, cxs, window=window)
    full = check_tw_dg(full_path(model), cxs, window=window)
    assert (reduced.ok, reduced.witness) == (full.ok, full.witness)
    if full.ok:
        assert reduced.details["tuples_checked"] == full.details["tuples_checked"]
        for d, counts in full.details["per_arity"].items():
            mine = reduced.details["per_arity"][d]
            assert counts["certified_by_translation"] == 0
            assert mine["certified_zero_by_linkage"] == counts["certified_zero_by_linkage"]
            assert mine["certified_by_translation"] > 0


def test_translation_agrees_with_full_path_on_acceptance_target(three_fibers):
    _F, model, objs = functor_F(three_fibers, 3)
    assert_paths_agree(model, list(objs) + synthetic_twisted_complexes(model, tag="syn"), 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_translation_agrees_with_full_path_on_battery(n):
    cm = circle_model(n)
    assert_paths_agree(cm, synthetic_twisted_complexes(cm, f"b{n}"), 1)


def flipped_block_mu(ops, block, windings=None):
    """The keyed mu with mu_2 negated on pairs of two morphisms at `block`
    (a (name1, i1, name2, i2) summand pair), read off the decoded gids: at
    every winding, or only when the two base windings are `windings`."""
    def mu(keys):
        out = ops.mu(keys)
        if len(keys) == 2:
            g1, g2 = (ops.decode(key).gid for key in keys)
            if g1[1:5] == block == g2[1:5] and windings in (None, (g1[5][3], g2[5][3])):
                return tuple((key, -c) for key, c in out)
        return out
    return mu


def flipped_reports(block, windings):
    """The reports of the unreduced enumeration, of summand classes alone
    (the full path) and of classes with translation (the circle model) on
    the circle battery, with `flipped_block_mu` on `block`."""
    cm = circle_model(2)
    cxs = synthetic_twisted_complexes(cm, "c")
    reports = []
    for cat in (unreduced(tw_category(cm, cxs, window=1), cxs),
                tw_category(full_path(cm), cxs, window=1), tw_category(cm, cxs, window=1)):
        mu = flipped_block_mu(cat.keyed, block, windings)
        cat = dataclasses.replace(cat, mu_fn=None, keyed=dataclasses.replace(cat.keyed, mu=mu))
        reports.append(check_ainfty(cat, 2))
    full = reports[0]
    assert not full.ok and full.witness["d"] == 2
    return reports


@pytest.mark.parametrize("windings, reduced_fails", [(None, True), ((1, 1), False)])
def test_translation_under_keyed_corruptions(windings, reduced_fails):
    # c-pair-0 summand 1 comes first in its in-, middle and out-class.  A
    # flip on its block at every winding keeps translation symmetry and
    # every path reports it; a flip at winding +1 only breaks it, and only
    # the paths without translation see it: the stated limit of the lemma
    full, classes, reduced = flipped_reports(("c-pair-0", 1, "c-pair-0", 1), windings)
    assert (classes.ok, classes.witness) == (False, full.witness)
    assert reduced.ok != reduced_fails
    if reduced_fails:
        assert reduced.witness == full.witness


def test_relabelling_under_keyed_corruptions():
    # c-pair-0 summand 0 is no representative: its in-class and its middle
    # class (the pair (0, 0)) are first met at c-single-0.  Every product
    # the flip on its block negates is read only by pairs through that
    # middle pair, so only the unreduced enumeration sees it: the stated
    # limit of the summand-class lemma
    full, classes, reduced = flipped_reports(("c-pair-0", 0, "c-pair-0", 0), None)
    assert full.witness["tuple"][1][1:5] == ("c-pair-0", 0, "c-pair-0", 0)
    assert classes.ok and reduced.ok


WITNESS_GIDS = ("u", "a", "b", "c", "ab")


@st.composite
def flipped_path_models(draw):
    """A path model with the composition of one generator pair negated, and
    the winding window to check it on."""
    if draw(st.booleans()):
        pair = (draw(st.sampled_from(WITNESS_GIDS)), draw(st.sampled_from(WITNESS_GIDS)))
        return MutatedPathModel(leibniz_witness_model(), pair), 0
    n = draw(st.integers(1, 2))
    i, j, l = (draw(st.integers(0, n - 1)) for _ in range(3))
    w1, w2 = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    pair = (("p", i, j, w1), ("p", j, l, w2))
    return MutatedPathModel(circle_model(n), pair), draw(st.integers(1, 2))


@settings(max_examples=25, deadline=None)
@given(case=flipped_path_models())
@example(case=(MutatedPathModel(circle_model(1), (("p", 0, 0, 1), ("p", 0, 0, 2))), 2))
@example(case=(MutatedPathModel(leibniz_witness_model(), ("a", "b")), 0))
def test_path_model_witness_matches_exhaustive_reference(case):
    model, window = case
    rep = validate_path_model(model, window)
    witness, _count = exhaustive_check(path_model_category(model, window), 3)
    if witness is None:
        assert rep.ok or rep.witness["check"] in ("left-unit", "right-unit")
    else:
        assert (rep.witness["tuple"], rep.witness["d"]) == (witness["tuple"], witness["d"])
        assert rep.witness["residual"] == witness["residual"]


@settings(max_examples=15, deadline=None)
@given(case=flipped_path_models())
def test_certified_path_agrees_with_full_path_on_path_models(case):
    model, window = case
    cat = path_model_category(model, window)
    certified, full = check_ainfty(cat, 3), check_ainfty(without_translation(cat), 3)
    assert (certified.ok, certified.witness) == (full.ok, full.witness)
    if full.ok:
        assert certified.details["tuples_checked"] == full.details["tuples_checked"]
