import dataclasses
import json

import pytest

from floerloops.ainfty import (
    CompositionError,
    ainfty_residual,
    category_from_json,
    category_from_tables,
    category_to_json,
    check_ainfty,
    check_functor,
    AInftyFunctor,
    gid_from_json,
    gid_to_json,
    mu2_shifted,
)
from floerloops.gradedalg import Chain, Generator, sign_pow
from floerloops.pontryagin import (
    MutatedPathModel,
    circle_model,
    leibniz_witness_model,
    path_model_category,
)
from gauges import gauged


def witness_category():
    return path_model_category(leibniz_witness_model(), window=0, name="W")


def test_dga_passes_arity_three():
    # a DGA with correct signs passes; d<=3 is d**2=0, Leibniz, associativity
    assert check_ainfty(witness_category(), 3).ok


def test_leibniz_reduction_for_d2_with_inner_mu1():
    # with d2 = 1 and k = 0 the relation reduces to
    # mu1 mu2 + mu2(id x mu1) +- mu2(mu1 x id), matching a direct check
    model = leibniz_witness_model()
    cat = witness_category()
    gens = {g.gid: g for g in model.all_gens()}
    for gid1 in ("u", "a", "b", "c", "ab"):
        for gid2 in ("u", "a", "b", "c", "ab"):
            x1, x2 = gens[gid1], gens[gid2]
            residual = ainfty_residual(cat, (x1, x2))
            direct = (
                model.mu1(model.mu2(Chain.of(x2), Chain.of(x1)))
                + model.mu2(Chain.of(x2), model.mu1(Chain.of(x1)))
                + model.mu2(model.mu1(Chain.of(x2)), Chain.of(x1)).scale(
                    sign_pow(1 + x1.degree)
                )
            )
            assert residual == direct
            assert residual.is_zero()


def test_mutated_pontryagin_fails_at_d3_with_witness():
    bad = MutatedPathModel(circle_model(1), (("p", 0, 0, 1), ("p", 0, 0, 2)))
    rep = check_ainfty(path_model_category(bad, window=2), 3)
    assert not rep.ok
    assert rep.witness["d"] == 3
    # the residual of a failing tuple is a chain of degree 3 - d + sum|x_j|
    cat = path_model_category(bad, window=2)
    gens = tuple(Generator(("p", 0, 0, k), 0) for k in (1, 1, 2))
    residual = ainfty_residual(cat, gens)
    assert not residual.is_zero()
    assert residual.degree() == 3 - 3 + 0


@pytest.mark.parametrize(
    "deg2,m0,m1,expected",
    [
        (1, 0, 0, 1),    # zero shift difference: plain mu2
        (1, 0, 1, 1),    # odd degree, shift 1: exponent (1+1)*1 even
        (0, 0, 1, -1),   # even degree, shift 1: exponent odd
        (0, 2, 1, -1),
    ],
)
def test_mu2_shifted_sign(deg2, m0, m1, expected):
    model = leibniz_witness_model()
    gens = {g.gid: g for g in model.all_gens()}
    s2 = Chain.of(gens["b"] if deg2 == 1 else gens["u"])
    s1 = Chain.of(gens["a"])
    plain = model.mu2(s2, s1)
    shifted = mu2_shifted(model.mu2, s2, s1, (m0, m1, m1))
    assert shifted == plain.scale(expected)


def small_table_category():
    a = Generator("a", 0)
    b = Generator("b", 1)
    hom = {("O", "O"): (a, b)}
    # d(a) = b, all products zero: a two-term complex as a category
    tables = {1: {("a",): Chain.of(b)}}
    return category_from_tables("S", ("O",), hom, tables, is_dg=True)


def test_table_category_and_checks():
    cat = small_table_category()
    assert check_ainfty(cat, 3).ok
    assert cat.mu_fn((Generator("a", 0),)) == Chain.of(Generator("b", 1))


def test_noncomposable_rejected():
    a = Generator("a", 0)
    b = Generator("b", 0)
    hom = {("O", "P"): (a,), ("P", "O"): (b,)}
    with pytest.raises(CompositionError):
        category_from_tables(
            "bad", ("O", "P"), hom, {2: {("a", "a"): Chain.of(a)}}
        )
    with pytest.raises(CompositionError):
        category_from_tables("empty", ("O", "P"), hom, {0: {(): Chain.of(a)}})


def test_degree_bookkeeping_enforced():
    a = Generator("a", 0)
    wrong = Generator("w", 5)
    hom = {("O", "O"): (a, wrong)}
    with pytest.raises(ValueError, match="mu_1 output w has degree 5, expected 1"):
        category_from_tables("deg", ("O",), hom, {1: {("a",): Chain.of(wrong)}})


def test_duplicate_generator_rejected():
    a = Generator("a", 0)
    with pytest.raises(ValueError):
        category_from_tables("dup", ("O", "P"), {("O", "O"): (a,), ("P", "P"): (a,)}, {})


def test_token_normalisation_in_mu():
    # a token on one input of a.b = ab flips the product; on every factor
    # and the output it cancels, and the gauged category still passes
    model = leibniz_witness_model()
    cat = witness_category()
    gens = {g.gid: g for g in model.all_gens()}
    ab = (gens["a"], gens["b"])
    assert gauged(cat, {"a": -1}).mu_fn(ab) == -cat.mu_fn(ab)
    assert gauged(cat, {"a": -1, "b": -1, "ab": -1}).mu_fn(ab) == -cat.mu_fn(ab)
    assert gauged(cat, {"a": -1, "ab": -1}).mu_fn(ab) == cat.mu_fn(ab)
    assert check_ainfty(gauged(cat, {"a": -1, "c": -1}), 3).ok


def test_identity_functor_of_dga_passes():
    cat = witness_category()
    F = AInftyFunctor(cat, cat, {0: 0}, lambda keys: ((keys[0], 1),), arities={1}, name="id")
    rep = check_functor(F, 3)
    assert rep.ok
    assert rep.details["tuples_checked"] == sum(cat.count_composable(d) for d in (1, 2, 3))


def test_functor_requires_dg_target():
    cat = witness_category()
    not_dg = dataclasses.replace(cat, is_dg=False)
    F = AInftyFunctor(cat, not_dg, {0: 0}, lambda keys: ())
    with pytest.raises(ValueError):
        check_functor(F, 2)


def test_broken_functor_detected():
    # the identity with F^1(c) = 0: mu_1(c) = ab is not hit on the right
    cat = witness_category()
    ops = cat.kernel_ops()

    def components(keys):
        return () if ops.decode(keys[0]).gid == "c" else ((keys[0], 1),)

    F = AInftyFunctor(cat, cat, {0: 0}, components, arities={1}, name="broken")
    rep = check_functor(F, 2)
    assert not rep.ok
    assert rep.witness == {"tuple": ["c"], "d": 1, "residual": "Chain(1*ab)"}


def test_gid_json_round_trip():
    gids = ["a", ("x", 0, 1, -2), ("m", "F0", 0, "F1", 0, ("p", 0, 1, 3)), 7]
    for gid in gids:
        assert gid_from_json(gid_to_json(gid)) == gid


def test_category_json_round_trip_lossless():
    b = Generator("b", 1)
    a = Generator("a", 0)
    hom = {("O", "O"): (a, b)}
    tables = {1: {("a",): Chain.of(b)}, 2: {("a", "a"): Chain.of(a, -2)}}
    cat = category_from_tables("S", ("O",), hom, tables, is_dg=True)
    doc = category_to_json(cat, tables)
    text = json.dumps(doc, sort_keys=True)
    cat2, tables2 = category_from_json(json.loads(text))
    assert category_to_json(cat2, tables2) == doc
    assert check_ainfty(cat2, 2).ok == check_ainfty(cat, 2).ok
    assert cat2.mu_fn((a, a)) == Chain.of(a, -2)
