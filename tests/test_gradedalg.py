import pytest
from hypothesis import given, strategies as st

from floerloops.ainfty import check_ainfty
from floerloops.gradedalg import Chain, Generator
from tables import category_from_tables


GENS = [Generator(f"g{i}", i % 3) for i in range(4)]
chain_strategy = st.builds(
    lambda coeffs: Chain(dict(zip(GENS, coeffs))),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
)


@given(chain_strategy, chain_strategy, chain_strategy)
def test_chain_commutative_group(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + Chain.zero() == a
    assert (a - a).is_zero()


@given(chain_strategy)
def test_canonical_form_idempotent(a):
    assert Chain(a.terms) == a


def test_orientation_token_is_sign():
    # a sign change of a basis element is a coefficient; a generator is
    # only a gid and a degree
    g = Generator("x", 1)
    assert Chain.of(g, -1) == -Chain.of(g)
    assert Chain.of(g) + Chain.of(g, -1) == Chain.zero()
    with pytest.raises(TypeError):
        Generator("x", 0, -1)


def test_chain_degree():
    assert Chain.zero().degree() is None
    assert Chain.of(Generator("a", 2)).degree() == 2
    mixed = Chain.of(Generator("a", 2)) + Chain.of(Generator("b", 3))
    with pytest.raises(ValueError):
        mixed.degree()


# -- differentials: d squared is the d = 1 A-infinity relation -------------

def complex_category(basis, differential):
    """One object, the basis, and mu_1 the differential table."""
    return category_from_tables("C", ("O",), {("O", "O"): basis}, {1: differential})


def test_check_d_squared_zero_differential():
    basis = tuple(Generator(f"z{i}", 0) for i in range(3))
    assert check_ainfty(complex_category(basis, {}), 1).ok


def test_check_d_squared_circle_model_homs():
    from floerloops.pontryagin import circle_model, path_model_category

    rep = check_ainfty(path_model_category(circle_model(1), window=3), 1)
    assert rep.ok and rep.details["per_arity"][1]["enumerated"] == 7


def test_check_d_squared_corrupted_two_step():
    # Z -> Z -> Z with both maps the identity: d squared is the identity
    a, b, c = Generator("a", 0), Generator("b", 1), Generator("c", 2)
    bad = complex_category((a, b, c), {("a",): Chain.of(b), ("b",): Chain.of(c)})
    rep = check_ainfty(bad, 1)
    assert not rep.ok
    assert rep.witness == {"tuple": ["a"], "d": 1, "residual": "Chain(1*c)"}


def test_check_d_squared_flags_wrong_degree():
    a, b = Generator("a", 0), Generator("b", 2)
    with pytest.raises(ValueError, match="mu_1 output b has degree 2, expected 1"):
        complex_category((a, b), {("a",): Chain.of(b)})
