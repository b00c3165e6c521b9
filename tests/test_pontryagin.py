from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from floerloops.ainfty import check_ainfty
from floerloops.gradedalg import Chain
from floerloops.pontryagin import (
    CirclePathModel,
    FinitePathModel,
    MutatedPathModel,
    circle_model,
    leibniz_witness_model,
    path_model_category,
    path_model_from_json,
    validate_path_model,
)
from path_models import path_model_to_json


def test_circle_model_one_point_is_laurent_ring():
    model = circle_model(1)
    for i in range(-3, 4):
        for j in range(-3, 4):
            prod = model.concat_gens(model.gen(0, 0, i), model.gen(0, 0, j))
            assert prod == Chain.of(model.gen(0, 0, i + j))
    assert model.unit_gen(0) == model.gen(0, 0, 0)


def test_circle_model_one_point_commutative():
    model = circle_model(1)
    for i in range(-2, 3):
        for j in range(-2, 3):
            a, b = Chain.of(model.gen(0, 0, i)), Chain.of(model.gen(0, 0, j))
            assert model.mu2(a, b) == model.mu2(b, a)


def test_mu2_sign_on_degree_zero_is_plus():
    # the product sign exponent is the degree of the first factor
    model = circle_model(2)
    g1, g2 = model.gen(0, 1, 0), model.gen(1, 0, 1)
    assert model.mu2(Chain.of(g2), Chain.of(g1)) == model.concat_gens(g1, g2)


def test_circle_model_offsets_compose_to_integer_winding():
    model = circle_model(2)
    g01 = model.gen(0, 1, 0)
    g10 = model.gen(1, 0, 1)
    assert model.displacement(g01) == Fraction(1, 2)
    assert model.displacement(g10) == Fraction(1, 2)
    comp = model.concat_gens(g01, g10)
    ((gen, coeff),) = list(comp.items())
    assert coeff == 1
    assert model.displacement(gen) == model.displacement(g01) + model.displacement(g10)
    assert model.gen_endpoints(gen) == (0, 0)
    # loop displacement is an integer winding
    assert model.displacement(gen).denominator == 1


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_circle_concat_associative(i, j, k):
    model = circle_model(3)
    a, b, c = model.gen(0, 1, i), model.gen(1, 2, j), model.gen(2, 0, k)
    ((ab, c1),) = model.concat_gens(a, b).items()
    ((bc, c2),) = model.concat_gens(b, c).items()
    assert model.concat_gens(ab, c).scale(c1) == model.concat_gens(a, bc).scale(c2)


@pytest.mark.parametrize("n", [1, 3])
def test_validate_circle_models(n):
    assert validate_path_model(circle_model(n), window=2).ok


def test_validate_catches_flipped_composition():
    model = MutatedPathModel(circle_model(1), (("p", 0, 0, 1), ("p", 0, 0, 2)))
    rep = validate_path_model(model, window=2)
    assert not rep.ok
    assert rep.witness["d"] == 3
    assert rep.witness["tuple"] == [("p", 0, 0, -2), ("p", 0, 0, 1), ("p", 0, 0, 2)]


def test_quasi_isomorphic_objects():
    # zero differential: homology per hom is free of rank one per winding class
    model = circle_model(3)
    for i in range(3):
        for j in range(3):
            basis = model.hom_basis(i, j, window=2)
            assert len({model.displacement(g) for g in basis}) == len(basis)
            assert all(model.d_gen(g).is_zero() for g in basis)


def test_circle_model_validation_errors():
    with pytest.raises(ValueError):
        circle_model(0)
    with pytest.raises(ValueError):
        CirclePathModel([Fraction(0), Fraction(0)])
    with pytest.raises(ValueError):
        CirclePathModel([Fraction(3, 2)])
    with pytest.raises(ValueError):
        circle_model(1).concat_gens(
            circle_model(1).gen(0, 0, 0), circle_model(2).gen(1, 0, 0)
        )


def test_leibniz_witness_model_validates():
    model = leibniz_witness_model()
    assert validate_path_model(model, window=0).ok


def test_path_model_category_matches_direct_checks():
    # a DGA passes the arity-3 relation check iff the direct checks pass
    good = leibniz_witness_model()
    assert check_ainfty(path_model_category(good, window=0), 3).ok

    bad = MutatedPathModel(circle_model(1), (("p", 0, 0, 1), ("p", 0, 0, 2)))
    assert not validate_path_model(bad, window=2).ok
    rep = check_ainfty(path_model_category(bad, window=2), 3)
    assert not rep.ok
    assert rep.witness["d"] == 3


def test_json_round_trip():
    model = leibniz_witness_model()
    doc = path_model_to_json(model)
    again = path_model_from_json(doc)
    assert path_model_to_json(again) == doc
    assert validate_path_model(again, window=0).ok


def test_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        path_model_from_json({"kind": "nope"})
    doc = path_model_to_json(leibniz_witness_model())
    doc["schema_version"] = 99
    with pytest.raises(ValueError):
        path_model_from_json(doc)


def test_finite_model_requires_units():
    with pytest.raises(ValueError):
        FinitePathModel(("P",), {"a": (0, 0, 1)}, {}, {})


@pytest.mark.parametrize(
    "composition,differential,unknown",
    [
        ({("u", "u"): {"zz": 1}}, {}, "zz"),
        ({("zz", "u"): {"u": 1}}, {}, "zz"),
        ({("u", "u"): {"u": 1}}, {"zz": {"u": 1}}, "zz"),
        ({("u", "u"): {"u": 1}}, {"u": {"zz": 1}}, "zz"),
    ],
)
def test_finite_model_rows_name_known_generators(composition, differential, unknown):
    with pytest.raises(ValueError, match=f"unknown generator '{unknown}'"):
        FinitePathModel(("P",), {"u": (0, 0, 0)}, {0: "u"}, composition, differential)


@pytest.mark.parametrize(
    "composition,differential,message",
    [
        # the unit u and y of degree 2 with y.y = y: y.y has degree 4
        ({("u", "u"): {"u": 1}, ("u", "y"): {"y": 1}, ("y", "u"): {"y": 1},
          ("y", "y"): {"y": 1}}, {}, "composition 'y'.'y' result 'y' has degree 2, expected 4"),
        ({("u", "u"): {"u": 1}}, {"u": {"y": 1}},
         "differential of 'u' result 'y' has degree 2, expected 1"),
    ],
)
def test_finite_model_rows_keep_the_grading(composition, differential, message):
    with pytest.raises(ValueError, match=message):
        FinitePathModel(("P",), {"u": (0, 0, 0), "y": (0, 0, 2)}, {0: "u"},
                        composition, differential)
