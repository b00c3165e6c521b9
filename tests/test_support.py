"""The support-driven A-infinity checker against an exhaustive reference.

The reference below evaluates every split of every composable tuple through
the category's raw `mu_fn`, ignoring the declared arity support and the
summand linkage, so it also checks that those declarations are true.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from floerloops.ainfty import (
    AInftyCategory,
    category_from_tables,
    check_ainfty,
)
from floerloops.cylinder import TWISTS, CylinderGeometry, cylinder_category
from floerloops.gradedalg import Chain, Generator, sign_pow
from floerloops.pontryagin import circle_model
from floerloops.twisted import synthetic_twisted_complexes, tw_category


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
    flips=st.sets(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(-4, 4))),
)
def test_support_checker_matches_exhaustive_reference(g, twist, flips):
    n = g.nfibers()
    tokens = {("x", a, b, w): -1 for a, b, w in flips if a < n and b < n}
    cat = cylinder_category(g, 1, 4, twist=twist, tokens=tokens)
    assert_agrees(cat, 4)


def test_mu2_sign_witness_matches_reference():
    g = CylinderGeometry(Fraction(1), (Fraction(0),))
    rep = assert_agrees(cylinder_category(g, 1, 4, mutate_mu2=True), 4)
    assert not rep.ok and rep.witness["d"] == 3


def test_tuples_checked_counts_every_composable_tuple(three_fibers):
    cm = circle_model(2)
    for cat, max_d in (
        (cylinder_category(three_fibers, 1, 4), 4),
        (tw_category(cm, synthetic_twisted_complexes(cm, "n")[:3], window=1), 3),
    ):
        rep = check_ainfty(cat, max_d)
        assert rep.ok
        total = sum(len(list(cat.composable_tuples(d))) for d in range(1, max_d + 1))
        assert rep.details["tuples_checked"] == total
        for d, counts in rep.details["per_arity"].items():
            assert counts["enumerated"] + counts["certified_zero_by_support"] == cat.count_composable(d)


def test_cylinder_enumerates_only_arity_three(one_fiber):
    rep = check_ainfty(cylinder_category(one_fiber, 2, 4), 4)
    enumerated = {d: c["enumerated"] for d, c in rep.details["per_arity"].items()}
    assert enumerated == {1: 0, 2: 0, 3: 5 ** 3, 4: 0}
    assert rep.details["per_arity"][4]["certified_zero_by_support"] == 5 ** 4


def test_linkage_skips_only_zero_relations():
    cm = circle_model(2)
    cat = tw_category(cm, synthetic_twisted_complexes(cm, "link"), window=1)
    skipped = 0
    for gens in cat.composable_tuples(2):
        if not cat.linked(gens):
            skipped += 1
            assert exhaustive_residual(cat, gens).is_zero()
    rep = check_ainfty(cat, 2)
    assert rep.ok
    assert skipped > 0
    assert rep.details["per_arity"][2]["certified_zero_by_linkage"] == skipped


def test_declared_support_is_authoritative():
    a = Generator("a", 0)
    b = Generator("b", 1)
    hom = {("O", "O"): (a, b)}
    cat = AInftyCategory("s", ("O",), hom, lambda gens: Chain.of(b), arities={2})
    assert cat.mu((a,)).is_zero() and cat.mu_raw((a,)).is_zero()
    tables = {1: {("a",): Chain.of(b)}, 2: {("a", "a"): Chain.zero()}}
    assert category_from_tables("t", ("O",), hom, tables).arities == {1}
