import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from floerloops import cylinder
from floerloops.ainfty import CompositionError, check_ainfty, check_functor
from floerloops.cli import MUTATIONS
from floerloops.cylinder import (
    Chord,
    CylinderConfigError,
    _cross,
    _mu2_corners,
    CylinderGeometry,
    build_F_object,
    chord,
    connection_from_strips,
    cylinder_category,
    enumerate_chords,
    functor_F,
    half_disc_d1,
    half_disc_d2_family,
    intersection_points,
    maslov_cross_check,
    maslov_degree_oracle,
    mu2_raster_count,
    mu_d,
    mu_polygons,
    pontryagin_target,
    raster_cross_check,
    ring_isomorphism_report,
    structure_constants,
    twist_sign,
)
from floerloops.gradedalg import Chain, Generator
from floerloops.moduli import choose_fundamental_chains, verify_boundary_consistency
from floerloops.twisted import validate_twisted
from gauges import gauged, gauged_functor, winding_parity, winding_parity_functor


def f1_image(F, x):
    """F^1 of the chord x as a (target generator, coeff) pair."""
    ((key, coeff),) = F.components((F.source.kernel_ops().encode(x.generator()),))
    return F.target.kernel_ops().decode(key), coeff


def brute_force_windings(g, a, b, bound):
    """Independent enumeration: scan windings and keep solutions of
    b - a + w = 2 c p with |w| <= bound."""
    out = []
    for w in range(-bound, bound + 1):
        p = (g.fibers[b] - g.fibers[a] + w) / (2 * g.c)
        if g.fibers[a] + 2 * g.c * p - g.fibers[b] == w:
            out.append((w, p))
    return out


def test_enumerate_same_fiber_momenta(one_fiber):
    xs = enumerate_chords(one_fiber, 0, 0, 2)
    assert {(x.winding, x.momentum) for x in xs} == {
        (k, Fraction(k, 2)) for k in range(-2, 3)
    }
    assert [x.action for x in xs] == sorted(x.action for x in xs)
    assert set(brute_force_windings(one_fiber, 0, 0, 2)) == {
        (x.winding, x.momentum) for x in xs
    }


def test_enumerate_distinct_fibers_bound_zero():
    g = CylinderGeometry(Fraction(1), (Fraction(0), Fraction(1, 2)))
    xs = enumerate_chords(g, 0, 1, 0)
    assert len(xs) == 1
    assert xs[0].momentum == Fraction(1, 4)
    assert xs[0].action == -Fraction(1, 16)


def test_enumerate_superset_monotone(three_fibers):
    small = {x.gid for x in enumerate_chords(three_fibers, 0, 1, 1)}
    large = {x.gid for x in enumerate_chords(three_fibers, 0, 1, 2)}
    assert small < large


def test_geometry_validation():
    with pytest.raises(CylinderConfigError):
        CylinderGeometry(Fraction(0), (Fraction(0),))
    with pytest.raises(CylinderConfigError):
        CylinderGeometry(Fraction(1), ())
    with pytest.raises(CylinderConfigError):
        CylinderGeometry(Fraction(1), (Fraction(0), Fraction(0)))
    with pytest.raises(CylinderConfigError):
        CylinderGeometry(Fraction(1), (Fraction(3, 2),))
    with pytest.raises(CylinderConfigError):
        enumerate_chords(CylinderGeometry(Fraction(1), (Fraction(0),)), 0, 0, -1)


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 2), Fraction(3), Fraction(2, 7)])
def test_maslov_oracle_agrees(c):
    g = CylinderGeometry(c, (Fraction(0), Fraction(1, 3)))
    for x in enumerate_chords(g, 0, 1, 2):
        for steps in (128, 512, 2048):
            assert maslov_degree_oracle(g, x, steps=steps) == 0 == x.degree


def test_maslov_cross_check(three_fibers):
    assert maslov_cross_check(three_fibers, 3).ok


def float_rotation_degree(c: Fraction, steps: int) -> int:
    """The float rotation count the integer oracle replaced: the tangent
    angle tracked by atan2 as a lift modulo pi, with a 1e-9 guard."""
    prev = math.atan2(1.0, 0.0)
    lift = prev
    for n in range(1, steps + 1):
        ang = math.atan2(1.0, 2.0 * float(c) * (n / steps))
        delta = ang - prev
        while delta > math.pi / 2:
            delta -= math.pi
        while delta <= -math.pi / 2:
            delta += math.pi
        lift += delta
        prev = ang
    sweep = (lift - math.atan2(1.0, 0.0)) / math.pi
    assert abs(sweep - round(sweep)) >= 1e-9 or round(sweep) == sweep, "refine steps"
    return math.ceil(sweep)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
       st.integers(1, 600))
def test_maslov_degree_is_zero_and_matches_float_count(c, steps):
    g = CylinderGeometry(c, (Fraction(0),))
    oracle = maslov_degree_oracle(g, chord(g, 0, 0, 1), steps=steps)
    assert oracle == float_rotation_degree(c, steps) == 0


def test_maslov_cross_check_catches_a_mutated_degree():
    g = CylinderGeometry(Fraction(1), (Fraction(0), Fraction(1, 3)))
    x = chord(g, 0, 1, 1)
    g._chords[g.key(0, 1, 1)] = dataclasses.replace(x, degree=1)
    rep = maslov_cross_check(g, 2)
    assert not rep.ok
    assert rep.witness == {"chord": x.gid, "assigned": 1, "oracle": 0}


def test_mu2_same_fiber_single_triangle(one_fiber):
    for i in range(-2, 3):
        for j in range(-2, 3):
            x1, x2 = chord(one_fiber, 0, 0, i), chord(one_fiber, 0, 0, j)
            assert mu_polygons(one_fiber, (x1, x2)) == [(one_fiber.key(0, 0, i + j), 1)]
            *_, (P0, P1, P2) = _mu2_corners(one_fiber, one_fiber.key(0, 0, i), one_fiber.key(0, 0, j))
            assert (P0 == P1 == P2) == (i == j)
            out = mu_d(one_fiber, (x1, x2))
            assert out == Chain.of(Generator(("x", 0, 0, i + j), 0))


def test_mu2_unit_chord(one_fiber):
    unit = chord(one_fiber, 0, 0, 0)
    for w in (-2, 1, 3):
        x = chord(one_fiber, 0, 0, w)
        assert mu_d(one_fiber, (unit, x)) == Chain.of(x.generator())
        assert mu_d(one_fiber, (x, unit)) == Chain.of(x.generator())


def test_mu2_energy_identity_and_action_direction(three_fibers):
    # the weighted output action exceeds the input action sum by the
    # polygon area, with equality exactly in the constant configuration
    g = three_fibers
    for a, b, c_idx in ((0, 1, 2), (1, 1, 1), (2, 0, 1)):
        for w1 in (-2, 0, 1):
            for w2 in (-1, 0, 2):
                x1, x2 = chord(g, a, b, w1), chord(g, b, c_idx, w2)
                assert len(mu_polygons(g, (x1, x2))) == 1
                *_, corners = _mu2_corners(g, g.key(a, b, w1), g.key(b, c_idx, w2))
                area = g.half_cells(-_cross(*corners))
                p_out = x1.momentum + x2.momentum
                weighted_action = -g.c * p_out * p_out / 2
                assert area == weighted_action - (x1.action + x2.action)
                assert weighted_action >= x1.action + x2.action
                assert (area == 0) == (corners[0] == corners[1] == corners[2])


def test_mu2_output_degree_bookkeeping(one_fiber):
    out = mu_d(one_fiber, (chord(one_fiber, 0, 0, 1), chord(one_fiber, 0, 0, 2)))
    assert out.degree() == 2 - 2 + 0


def test_mu_d_rejects_bad_input(one_fiber):
    with pytest.raises(ValueError):
        mu_polygons(one_fiber, (chord(one_fiber, 0, 0, 1),))
    g2 = CylinderGeometry(Fraction(1), (Fraction(0), Fraction(1, 2)))
    with pytest.raises(CompositionError):
        mu_d(g2, (chord(g2, 0, 1, 0), chord(g2, 0, 1, 0)))


def test_mu3_mu4_empty_by_census(three_fibers):
    # every composable d = 3 tuple with |winding| <= 1 on three fibres, and
    # every d = 4 tuple with |winding| <= 2 on one fibre, bounds no rigid
    # polygon: the family has dimension d - 2 > 0
    one_fiber = CylinderGeometry(Fraction(1), (Fraction(0),))
    for g, d, bound in ((three_fibers, 3, 1), (one_fiber, 4, 2)):
        n, windings = g.nfibers(), range(-bound, bound + 1)
        tuples = 0
        for path in itertools.product(range(n), repeat=d + 1):
            for ws in itertools.product(windings, repeat=d):
                chords = tuple(chord(g, path[k], path[k + 1], ws[k]) for k in range(d))
                assert mu_polygons(g, chords) == []
                assert mu_d(g, chords).is_zero()
                tuples += 1
        assert tuples == n ** (d + 1) * len(windings) ** d


def test_rescaling_invariance(three_fibers):
    base = structure_constants(three_fibers, 2)
    for rho in (Fraction(2), Fraction(4)):
        rescaled = three_fibers.rescaled(rho)
        for a in range(3):
            x = chord(three_fibers, a, a, 1)
            assert chord(rescaled, a, a, 1).momentum == rho * x.momentum
        assert structure_constants(rescaled, 2) == base


def test_background_twists(one_fiber):
    x1, x2 = chord(one_fiber, 0, 0, 1), chord(one_fiber, 0, 0, 2)
    plain = mu_d(one_fiber, (x1, x2), twist=twist_sign("none"))
    assert mu_d(one_fiber, (x1, x2), twist=twist_sign("constant")) == -plain


def test_constant_twist_preserves_ainfty(one_fiber):
    cat = cylinder_category(one_fiber, 2, twist="constant")
    assert check_ainfty(cat, 4).ok


def test_parity_twist_outcome_recorded(one_fiber):
    # a sign read from the output winding is not an intersection number with
    # a cycle; the checkers report the computed failure with a valid witness
    rep = check_ainfty(winding_parity(cylinder_category(one_fiber, 1)), 4)
    assert not rep.ok
    assert rep.witness == {
        "tuple": [("x", 0, 0, -1), ("x", 0, 0, -1), ("x", 0, 0, 0)],
        "d": 3,
        "residual": "Chain(2*('x', 0, 0, -2))",
    }
    rep = check_ainfty(winding_parity(cylinder_category(one_fiber, 3)), 4)
    assert rep.witness == {
        "tuple": [("x", 0, 0, -3), ("x", 0, 0, -3), ("x", 0, 0, -2)],
        "d": 3,
        "residual": "Chain(2*('x', 0, 0, -8))",
    }
    F, _model, _objs = functor_F(one_fiber, 3)
    rep = check_functor(winding_parity_functor(F), 4)
    assert rep.witness == {
        "tuple": [("x", 0, 0, -3), ("x", 0, 0, -2)],
        "d": 2,
        "residual": "Chain(2*('m', 'F0', 0, 'F0', 0, ('p', 0, 0, -5)))",
    }


def test_token_gauge_invariance(one_fiber):
    tokens = {("x", 0, 0, 1): -1, ("x", 0, 0, -2): -1}
    cat = gauged(cylinder_category(one_fiber, 2), tokens)
    assert check_ainfty(cat, 4).ok
    x0, x1, x2 = (chord(one_fiber, 0, 0, w).generator() for w in (0, 1, 2))
    # x_1 occurs once in mu_2(x_2, x_1) -> x_3, so its flip is visible
    assert cat.mu_fn((x1, x2)) == Chain.of(Generator(("x", 0, 0, 3), 0), -1)
    # x_1 occurs twice in mu_2(x_0, x_1) -> x_1, so the flips cancel
    assert cat.mu_fn((x1, x0)) == Chain.of(Generator(("x", 0, 0, 1), 0), 1)


def test_mutated_mu2_detected(one_fiber):
    row, flip_mu2 = MUTATIONS["mu2-sign"]
    assert row == "ainfty"
    cat = cylinder_category(one_fiber, 1)
    assert check_ainfty(cat, 4).ok
    rep = check_ainfty(flip_mu2(cat), 4)
    assert not rep.ok
    assert rep.witness["d"] == 3
    # the wrapper leaves the category it wraps unchanged
    assert check_ainfty(cat, 4).ok


def test_intersection_points(three_fibers):
    pts0 = intersection_points(three_fibers, 0)
    pts1 = intersection_points(three_fibers, 1)
    assert len(pts0) == len(pts1) == 1
    assert pts0[0] != pts1[0]
    assert pts0[0][1] == 0  # degree


def test_connection_sign_convention():
    # |q^i| = 1, |q^j| = 0: the connection entry carries (-1)**(1*(0+1))
    ev = Chain.of(Generator("s", 0))
    D = connection_from_strips((1, 0), {(0, 1): ev})
    assert D[(0, 1)] == -ev
    assert connection_from_strips((0, 0), {(0, 1): ev})[(0, 1)] == ev


def test_build_F_object(three_fibers):
    model = pontryagin_target(three_fibers)
    for L in range(3):
        T = build_F_object(three_fibers, L, model)
        assert T.nsummands() == 1
        assert T.summands[0].shift == 0
        assert not T.D
        assert validate_twisted(T).ok


def test_half_disc_d1_unique_with_winding(one_fiber):
    for k in (-2, 0, 3):
        x = chord(one_fiber, 0, 0, k)
        disc = half_disc_d1(one_fiber, x)
        assert disc.winding == k
        assert disc.area == -x.action
        # rigidity: dim = |q0| - |q_d| - |x| = 0
        assert 0 - 0 - x.degree == 0


def test_half_disc_d2_family_feeds_chooser(three_fibers):
    g = three_fibers
    x1, x2 = chord(g, 0, 1, 1), chord(g, 1, 2, -1)
    dataset, ev = half_disc_d2_family(g, x1, x2)
    assert ev["constant_evaluation"]
    assert ev["total_winding"] == 0
    chains = choose_fundamental_chains(dataset)
    assert verify_boundary_consistency(dataset, chains).ok
    assert ev["total_displacement"] == half_disc_d1(g, chord(g, 0, 2, 0)).displacement


def test_functor_f1_values(one_fiber):
    F, _model, _objs = functor_F(one_fiber, 3)
    for k in range(-3, 4):
        gen, coeff = f1_image(F, chord(one_fiber, 0, 0, k))
        assert gen.gid == ("m", "F0", 0, "F0", 0, ("p", 0, 0, k))
        assert coeff == 1


def test_functor_equation_and_mutation(three_fibers):
    F, _model, _objs = functor_F(three_fibers, 2)
    assert check_functor(F, 2).ok
    row, zero_f1 = MUTATIONS["f1-zero"]
    assert row == "functor"
    rep = check_functor(zero_f1(F), 2)
    assert not rep.ok
    assert ("x", 0, 0, 1) in rep.witness["tuple"]
    assert check_functor(F, 2).ok


def test_functor_unit_chord_to_unit_loop(one_fiber):
    F, model, _ = functor_F(one_fiber, 1)
    gen, coeff = f1_image(F, chord(one_fiber, 0, 0, 0))
    assert coeff == 1
    assert gen.gid[5] == ("p", 0, 0, 0)


def test_ring_isomorphism(one_fiber):
    F, _model, _objs = functor_F(one_fiber, 3)
    rep = ring_isomorphism_report(F)
    assert rep.ok
    assert rep.details["unit_image"][0] == ("p", 0, 0, 0)
    assert rep.details["basis_size"] == 7
    bad = ring_isomorphism_report(MUTATIONS["f1-zero"][1](F))
    assert bad.witness == {"chord": ("x", 0, 0, 1), "reason": "image not a basis element"}


def test_f1_token_gauge_changes_signs_coherently(one_fiber):
    F = gauged_functor(functor_F(one_fiber, 1)[0], {("x", 0, 0, 1): -1})
    assert f1_image(F, chord(one_fiber, 0, 0, 1))[1] == -1
    assert f1_image(F, chord(one_fiber, 0, 0, 0))[1] == 1
    assert check_functor(F, 2).ok


def test_cw_hom_complex_d_squared(one_fiber):
    # mu_1 is zero by the support {2}: d squared is certified, not enumerated
    rep = check_ainfty(cylinder_category(one_fiber, 3), 1)
    assert rep.ok
    assert rep.details["per_arity"][1]["certified_zero_by_support"] == 7


def test_raster_oracle_small(three_fibers):
    assert raster_cross_check(three_fibers, 1, (96, 192)).ok


def test_raster_single_pair_degenerate(one_fiber):
    x = chord(one_fiber, 0, 0, 1)
    assert mu2_raster_count(one_fiber, x, x, 128) == 1
    y = chord(one_fiber, 0, 0, -1)
    assert mu2_raster_count(one_fiber, x, y, 128) == 1


TWO_FIBRES = (Fraction(1), (Fraction(0), Fraction(1, 3)))


@pytest.mark.parametrize("sweep", [
    lambda g: raster_cross_check(g, 1, ()),
    lambda g: raster_cross_check(g, -1),
    lambda g: structure_constants(g, -1),
    lambda g: maslov_cross_check(g, 1, ()),
    lambda g: maslov_cross_check(g, 1, (0,)),
    lambda g: maslov_cross_check(g, 1, (-5,)),
    lambda g: maslov_degree_oracle(g, chord(g, 0, 1, 0), 0),
    lambda g: maslov_degree_oracle(g, chord(g, 0, 1, 0), -5),
    lambda g: maslov_degree_oracle(g, chord(g, 0, 1, 0), 1.5),
], ids=["raster-no-resolution", "raster-negative-bound", "constants-negative-bound",
        "maslov-no-steps", "maslov-zero-steps", "maslov-negative-steps",
        "oracle-zero-steps", "oracle-negative-steps", "oracle-fractional-steps"])
def test_vacuous_oracle_input_is_a_config_error(sweep):
    # each would compare nothing: no resolution, no pair or no rotation step
    with pytest.raises(CylinderConfigError):
        sweep(CylinderGeometry(*TWO_FIBRES))


@pytest.mark.parametrize("windings, perturb, message", [
    # the output key one winding on: its delta is off by D
    ((1, -1), lambda n, out, d1, d2, P: (out + n * n, d1, d2, P), "does not close up"),
    # one corner moved: the cross product changes by delta_2 - delta_1
    ((1, -1), lambda n, out, d1, d2, P: (out, d1, d2, (P[0], (P[1][0] + 1, P[1][1]), P[2])),
     "corner orientation"),
    # delta_1 == delta_2 with collinear, distinct corners: the cross product
    # is 0, which the orientation check accepts
    ((1, 1), lambda n, out, d1, d2, P: (out, d1, d2, ((0, 0), (1, 1), (2, 2))),
     "degenerate configuration"),
], ids=["close-up", "orientation", "degenerate"])
def test_mu2_entry_checks_are_live(monkeypatch, windings, perturb, message):
    """Each check of `_mu2_entry` that corner data can reach fails on
    perturbed corners.  The order, energy and action checks cannot be
    reached: past the orientation check cross = -(delta_1 - delta_2)^2, and
    they follow from that identity."""
    g = CylinderGeometry(*TWO_FIBRES)
    k1, k2 = (g.key(0, 0, w) for w in windings)
    assert cylinder._mu2_entry(g, k1, k2) == ((g.key(0, 0, sum(windings)), 1),)
    corners = cylinder._mu2_corners
    monkeypatch.setattr(cylinder, "_mu2_corners",
                        lambda g, k1, k2: perturb(g.nfibers(), *corners(g, k1, k2)))
    with pytest.raises(AssertionError, match=message):
        cylinder._mu2_entry(g, k1, k2)


def test_random_geometry_properties():
    @settings(max_examples=25, deadline=None)
    @given(
        st.fractions(min_value=Fraction(1, 8), max_value=Fraction(8), max_denominator=8),
        st.lists(
            st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10),
            min_size=1, max_size=3, unique=True,
        ),
        st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
    )
    def run(c, fibers, w1, w2, w3):
        g = CylinderGeometry(c, tuple(fibers))
        n = g.nfibers()
        a, b, d, e = 0, n - 1, n // 2, 0
        x1 = chord(g, a, b, w1)
        x2 = chord(g, b, d, w2)
        x3 = chord(g, d, e, w3)
        # energy identity and winding closure for every triangle
        assert mu_polygons(g, (x1, x2)) == [(g.key(a, d, w1 + w2), 1)]
        # associativity of the product
        y12 = mu_d(g, (x1, x2))
        lhs = Chain.zero()
        for gen, coeff in y12.items():
            lhs = lhs + mu_d(g, (chord(g, *gen.gid[1:]), x3)).scale(coeff)
        y23 = mu_d(g, (x2, x3))
        rhs = Chain.zero()
        for gen, coeff in y23.items():
            rhs = rhs + mu_d(g, (x1, chord(g, *gen.gid[1:]))).scale(coeff)
        assert lhs == rhs

    run()


def test_functor_sign_flip_detected(one_fiber):
    # flipping the sign of one F^1 value breaks the d=2 functor equation
    F, _model, _objs = functor_F(one_fiber, 2)
    base = F.components
    mutated = F.source.kernel_ops().encode(chord(one_fiber, 0, 0, 1).generator())

    def flipped(keys):
        out = base(keys)
        if keys == (mutated,):
            out = tuple((k, -c) for k, c in out)
        return out

    bad = dataclasses.replace(F, components=flipped, name="flip")
    rep = check_functor(bad, 2)
    assert not rep.ok
    assert rep.witness["d"] == 2


def test_category_config_validation(one_fiber):
    with pytest.raises(CylinderConfigError):
        cylinder_category(one_fiber, 0)
    with pytest.raises(CylinderConfigError):
        cylinder_category(one_fiber, 2, twist="bogus")


@pytest.mark.parametrize("lookup", [
    lambda g: twist_sign("bogus"),
    lambda g: twist_sign(["none"]),
    lambda g: structure_constants(g, 1, twist="bogus"),
    lambda g: functor_F(g, 1, twist="bogus"),
    lambda g: cylinder_category(g, 1, twist="bogus"),
    lambda g: twist_sign("parity"),
])
def test_unknown_twist_is_a_config_error(one_fiber, lookup):
    with pytest.raises(CylinderConfigError, match="unknown twist"):
        lookup(one_fiber)
