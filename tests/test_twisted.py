import pytest

from floerloops.ainfty import check_ainfty
from floerloops.gradedalg import Chain
from floerloops.pontryagin import MutatedPathModel, circle_model, leibniz_witness_model
from floerloops.twisted import (
    ShiftedObject,
    TwistedComplex,
    check_tw_dg,
    synthetic_twisted_complexes,
    tw_category,
    tw_mu1,
    tw_mu2,
    twisted_from_json,
    twisted_to_json,
    validate_twisted,
)


def witness_complex(corrupt=False):
    model = leibniz_witness_model()
    gens = {g.gid: g for g in model.all_gens()}
    D = {
        (0, 1): Chain.of(gens["a"]),
        (1, 2): Chain.of(gens["b"]),
        (0, 2): Chain.of(gens["c"], -1 if corrupt else 1),
    }
    T = TwistedComplex(model, [ShiftedObject(0, 0)] * 3, D, name="W3")
    return model, T, gens


def test_single_summand_trivial_connection():
    model = circle_model(1)
    T = TwistedComplex(model, [ShiftedObject(0, 0)], {}, name="pt")
    assert validate_twisted(T).ok


def test_two_summand_cycle_passes():
    # a degree-1 cycle connection with no possible compositions
    model = circle_model(1)
    T = TwistedComplex(
        model,
        [ShiftedObject(0, 0), ShiftedObject(0, 1)],
        {(0, 1): Chain.of(model.gen(0, 0, 2))},
        name="cyc",
    )
    assert validate_twisted(T).ok


def test_witness_complex_maurer_cartan():
    _model, T, _ = witness_complex()
    assert validate_twisted(T).ok
    _model, bad, _ = witness_complex(corrupt=True)
    rep = validate_twisted(bad)
    assert not rep.ok
    assert rep.witness["entry"] == (0, 2)


def test_corrupted_connection_breaks_tw_mu1_squared():
    model, bad, _ = witness_complex(corrupt=True)
    rep = check_tw_dg(model, [bad], window=0)
    assert not rep.ok


def test_strict_upper_triangularity_enforced():
    model = circle_model(1)
    with pytest.raises(ValueError):
        TwistedComplex(
            model,
            [ShiftedObject(0, 0), ShiftedObject(0, 1)],
            {(1, 0): Chain.of(model.gen(0, 0, 0))},
        )
    with pytest.raises(ValueError):
        TwistedComplex(
            model,
            [ShiftedObject(0, 0), ShiftedObject(0, 2)],
            {(0, 1): Chain.of(model.gen(0, 0, 0))},  # shifted degree 2
        )


def test_tw_mu1_of_connection_is_mu2_DD():
    # substituting S = D into the twisted differential and using
    # Maurer-Cartan leaves exactly mu2(D, D)
    model, T, gens = witness_complex()
    S = dict(T.D)
    lhs = tw_mu1(T, T, S)
    rhs = tw_mu2(T, T, T, dict(T.D), dict(T.D))
    assert lhs == rhs
    assert rhs[(0, 2)] == Chain.of(gens["ab"], -1)


def test_tw_mu2_elementary_and_units():
    model = circle_model(1)
    one = TwistedComplex(model, [ShiftedObject(0, 0)], {}, name="one")
    unit = {(0, 0): Chain.of(model.unit_gen(0))}
    assert tw_mu2(one, one, one, unit, unit) == unit

    # incompatible indices give zero
    two = TwistedComplex(
        model, [ShiftedObject(0, 0), ShiftedObject(0, 1)],
        {(0, 1): Chain.of(model.gen(0, 0, 1))}, name="two",
    )
    S1 = {(0, 1): Chain.of(model.gen(0, 0, 0))}
    S2 = {(0, 1): Chain.of(model.gen(0, 0, 0))}
    assert tw_mu2(two, two, two, S2, S1) == {}


def test_tw_mu2_loop_classes_compose_with_plus_sign():
    # degree-0 loop classes: mu2(t^j, t^i) = +t^(i+j)
    model = circle_model(1)
    one = TwistedComplex(model, [ShiftedObject(0, 0)], {}, name="one")
    for i in (-2, 0, 1):
        for j in (-1, 0, 3):
            S1 = {(0, 0): Chain.of(model.gen(0, 0, i))}
            S2 = {(0, 0): Chain.of(model.gen(0, 0, j))}
            out = tw_mu2(one, one, one, S2, S1)
            assert out == {(0, 0): Chain.of(model.gen(0, 0, i + j))}


def test_identity_like_morphism_differential_term_by_term():
    # hand evaluation of the elementary-matrix differential on a
    # two-summand complex: the S,D term carries the shifted sign -1,
    # the D,S term +1, and the identity-like matrix is closed
    model = circle_model(1)
    delta = Chain.of(model.gen(0, 0, 1))
    T = TwistedComplex(
        model, [ShiftedObject(0, 0), ShiftedObject(0, 1)], {(0, 1): delta}, name="T",
    )
    S = {(0, 0): Chain.of(model.unit_gen(0)), (1, 1): Chain.of(model.unit_gen(0))}
    term_SD = tw_mu2(T, T, T, S, dict(T.D))
    term_DS = tw_mu2(T, T, T, dict(T.D), S)
    assert term_SD == {(0, 1): -delta}
    assert term_DS == {(0, 1): delta}
    assert tw_mu1(T, T, S) == {}


def test_global_shift_leaves_operations_invariant():
    # the shifted-composition sign depends only on shift differences, so
    # shifting every summand by +1 changes nothing
    model, T, gens = witness_complex()
    T1 = TwistedComplex(
        model, [ShiftedObject(0, s.shift + 1) for s in T.summands], dict(T.D),
        name="W3+1",
    )
    S = {(0, 1): Chain.of(gens["a"]), (1, 2): Chain.of(gens["b"])}
    assert tw_mu1(T, T, S) == tw_mu1(T1, T1, S)
    assert tw_mu2(T, T, T, S, S) == tw_mu2(T1, T1, T1, S, S)
    assert validate_twisted(T1).ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_synthetic_battery_validates(n):
    model = circle_model(n)
    samples = synthetic_twisted_complexes(model, tag=f"t{n}")
    assert len(samples) >= 7
    for T in samples:
        assert validate_twisted(T).ok


def test_check_tw_dg_on_witness_and_circle_samples():
    model = circle_model(2)
    samples = [T for T in synthetic_twisted_complexes(model, "s") if T.nsummands() <= 2]
    rep = check_tw_dg(model, samples, window=1)
    assert rep.ok
    w_model, W, _ = witness_complex()
    assert check_tw_dg(w_model, [W], window=0, max_d=3).ok


def test_tw_category_adapter_is_dg_and_checks():
    model = circle_model(1)
    samples = synthetic_twisted_complexes(model, "a")[:4]
    cat = tw_category(model, samples, window=1)
    assert cat.is_dg
    assert check_ainfty(cat, 3).ok


def over(model, cxs):
    return [TwistedComplex(model, T.summands, T.D, name=T.name) for T in cxs]


def test_adapter_agrees_with_matrix_operations():
    # the specialised elementary paths of tw_category must compute exactly
    # tw_mu1 / tw_mu2 on the corresponding one-entry matrices: on the
    # Leibniz witness model (a nonzero differential, odd degrees, and with
    # S odd shift differences), on the circle, and on each behind a wrapper
    # flipping one product (the full linked path)
    from floerloops.twisted import matrix_entry_degree

    model, W, gens = witness_complex()
    S = TwistedComplex(model, [ShiftedObject(0, 0), ShiftedObject(0, 1)],
                       {(0, 1): Chain.of(gens["u"])}, name="S")
    cm = circle_model(2)
    shifted = [T for T in synthetic_twisted_complexes(cm, "adp") if T.nsummands() == 2]
    flipped_model = MutatedPathModel(model, ("a", "b"))
    flipped_cm = MutatedPathModel(cm, (cm.gen(0, 1, 1).gid, cm.gen(1, 0, -1).gid))
    for base_model, cxs, window in (
        (model, [W, S], 0),
        (cm, shifted[:2], 1),
        (flipped_model, over(flipped_model, [W, S]), 0),
        (flipped_cm, over(flipped_cm, shifted[:2]), 1),
    ):
        cat = tw_category(base_model, cxs, window=window)
        by_name = {T.name: T for T in cxs}

        def to_chain(Ta, Tb, matrix):
            out = Chain.zero()
            for (i1, i2), chain in matrix.items():
                for g, c in chain.items():
                    deg = matrix_entry_degree(Ta, Tb, i1, i2, g.degree)
                    out = out + Chain.of(
                        type(g)(("m", Ta.name, i1, Tb.name, i2, g.gid), deg), c
                    )
            return out

        def parse(gen):
            _, n1, i1, n2, i2, base_gid = gen.gid
            Ta, Tb = by_name[n1], by_name[n2]
            shift = Tb.shift_of(i2) - Ta.shift_of(i1)
            base = type(gen)(base_gid, gen.degree - shift)
            return Ta, i1, Tb, i2, base

        all_gens = [g for pair in cat.hom_keys for g in cat.hom_basis(*pair)]
        for g1 in all_gens:
            Ta, i1, Tb, i2, base = parse(g1)
            expected = to_chain(Ta, Tb, tw_mu1(Ta, Tb, {(i1, i2): Chain.of(base)}))
            assert cat.mu_fn((g1,)) == expected
        for g1 in all_gens:
            for g2 in all_gens:
                Ta, i1, Tb, i2, b1 = parse(g1)
                Tc1, j1, Tc, j2, b2 = parse(g2)
                if Tb.name != Tc1.name:
                    continue
                S1 = {(i1, i2): Chain.of(b1)}
                S2 = {(j1, j2): Chain.of(b2)}
                expected = to_chain(Ta, Tc, tw_mu2(Ta, Tb, Tc, S2, S1))
                assert cat.mu_fn((g1, g2)) == expected


def test_twisted_json_round_trip():
    model = circle_model(2)
    for T in synthetic_twisted_complexes(model, "j"):
        doc = twisted_to_json(T)
        again = twisted_from_json(model, doc)
        assert twisted_to_json(again) == doc
        assert validate_twisted(again).ok


def test_distinct_names_required():
    model = circle_model(1)
    T = TwistedComplex(model, [ShiftedObject(0, 0)], {}, name="X")
    with pytest.raises(ValueError):
        tw_category(model, [T, T])
