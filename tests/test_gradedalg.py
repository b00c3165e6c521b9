import pytest
from hypothesis import given, strategies as st

from floerloops.gradedalg import (
    Chain,
    Generator,
    GradedComplex,
    check_d_squared,
    koszul_sign,
    sign_pow,
)


def koszul_oracle(left, right):
    """Independent oracle: bubble every right symbol past every left symbol
    one adjacent transposition at a time, multiplying (-1)**(a*b) per swap."""
    word = [("L", i, d) for i, d in enumerate(left)]
    word += [("R", i, d) for i, d in enumerate(right)]
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i][0] == "L" and word[i + 1][0] == "R":
                sign *= sign_pow(word[i][2] * word[i + 1][2])
                word[i], word[i + 1] = word[i + 1], word[i]
                changed = True
    assert [w[0] for w in word] == ["R"] * len(right) + ["L"] * len(left)
    return sign


@pytest.mark.parametrize(
    "left,right,expected",
    [
        ([1], [1], -1),      # two odd lines commute with -1
        ([2], [3], 1),       # even factor
        ([1, 1], [1], 1),    # frozen from the transposition oracle
        ([1, 2, 3], [1, 1], 1),  # two odd lines on each side
    ],
)
def test_koszul_examples(left, right, expected):
    assert koszul_sign(left, right) == expected
    assert koszul_oracle(left, right) == koszul_sign(left, right)


@given(
    st.lists(st.integers(0, 4), max_size=5),
    st.lists(st.integers(0, 4), max_size=5),
    st.lists(st.integers(0, 4), max_size=5),
)
def test_koszul_multiplicative(a, b, c):
    assert koszul_sign(a + b, c) == koszul_sign(a, c) * koszul_sign(b, c)
    assert koszul_sign(a, b + c) == koszul_sign(a, b) * koszul_sign(a, c)


@given(
    st.lists(st.integers(0, 4), max_size=4),
    st.lists(st.integers(0, 4), max_size=4),
)
def test_koszul_matches_oracle(a, b):
    assert koszul_sign(a, b) == koszul_oracle(a, b)


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
    g = Generator("x", 1)
    assert Chain.of(g.flipped()) == -Chain.of(g)
    assert Chain.of(g) + Chain.of(g.flipped()) == Chain.zero()
    with pytest.raises(ValueError):
        Generator("x", 0, 2)


def test_chain_degree():
    assert Chain.zero().degree() is None
    assert Chain.of(Generator("a", 2)).degree() == 2
    mixed = Chain.of(Generator("a", 2)) + Chain.of(Generator("b", 3))
    with pytest.raises(ValueError):
        mixed.degree()


# -- graded complexes ---------------------------------------------------------

def test_check_d_squared_zero_differential():
    basis = tuple(Generator(f"z{i}", 0) for i in range(3))
    assert check_d_squared(GradedComplex(basis, {})).ok


def test_check_d_squared_circle_model_homs():
    from floerloops.pontryagin import circle_model

    model = circle_model(1)
    cx = model.hom_complex(0, 0, window=3)
    assert check_d_squared(cx).ok


def test_check_d_squared_corrupted_two_step():
    # Z -> Z -> Z with both maps the identity: d squared is the identity
    a, b, c = Generator("a", 0), Generator("b", 1), Generator("c", 2)
    bad = GradedComplex((a, b, c), {a: Chain.of(b), b: Chain.of(c)})
    rep = check_d_squared(bad)
    assert not rep.ok
    assert rep.witness["generator"] == "a"


def test_check_d_squared_flags_wrong_degree():
    a, b = Generator("a", 0), Generator("b", 2)
    bad = GradedComplex((a, b), {a: Chain.of(b)})
    assert not check_d_squared(bad).ok

