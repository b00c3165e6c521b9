"""The integer lattice of a cylinder geometry against the Fraction geometry
it replaces, and the work the shared chord and mu_2 tables save."""

import collections
import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from floerloops import _kernels, cylinder
from floerloops.ainfty import check_ainfty, check_functor
from floerloops.cylinder import (
    CylinderGeometry,
    chord,
    cylinder_category,
    functor_F,
    half_disc_d1,
    key_pairs,
    mu_d,
    raster_cross_check,
    structure_constants,
    TWISTS,
)

BOUND = 3


def momentum(g, a, b, w):
    return (g.fibers[b] - g.fibers[a] + w) / (2 * g.c)


def check_against_fractions(g):
    """Chords, mu_2 triangles and half-discs of g against the Fraction
    formulas; returns the mu_2 table over every pair within the bound."""
    n = g.nfibers()
    for a, b in itertools.product(range(n), repeat=2):
        for w in range(-BOUND, BOUND + 1):
            x = chord(g, a, b, w)
            p = momentum(g, a, b, w)
            assert x.momentum == p
            assert x.action == -g.c * p * p
            assert half_disc_d1(g, x).area == g.c * p * p
    table = {}
    for pair in key_pairs(g, BOUND):
        x1, x2 = (g.chord_at(k) for k in pair)
        p1 = momentum(g, x1.source, x1.target, x1.winding)
        p2 = momentum(g, x2.source, x2.target, x2.winding)
        *_, corners = cylinder._mu2_corners(g, *pair)
        area = g.half_cells(-cylinder._cross(*corners))
        assert area == -g.c * (p1 + p2) ** 2 / 2 - (-g.c * p1 * p1 - g.c * p2 * p2)
        table[pair] = g.mu2_terms(*pair)
        assert [(g.key(*gen.gid[1:]), s) for gen, s in mu_d(g, (x1, x2)).items()] == list(table[pair])
    return table


@settings(max_examples=10, deadline=None)
@given(
    c=st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=12),
    fibers=st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda f: f < 1),
        min_size=1, max_size=3, unique=True,
    ),
)
def test_lattice_matches_fraction_geometry(c, fibers):
    g = CylinderGeometry(c, tuple(fibers))
    assert all(Fraction(n, g.denominator) == f for n, f in zip(g.lattice, g.fibers))
    table = check_against_fractions(g)
    for rho in (2, 4):
        h = g.rescaled(rho)
        assert (h.denominator, h.lattice) == (g.denominator, g.lattice)
        assert check_against_fractions(h) == table


ACCEPTANCE_GEOMETRY = (Fraction(1), (Fraction(0), Fraction(1, 3), Fraction(3, 4)))


def test_tables_build_each_chord_and_f1_once(monkeypatch):
    built = collections.Counter()
    f1_evaluations = collections.Counter()
    entries = collections.Counter()
    families = []
    chord_class = cylinder.Chord
    half_disc = cylinder.half_disc_d1
    family = cylinder.half_disc_d2_family
    entry_of = cylinder._mu2_entry

    def counted_chord(a, b, w, *rest):
        built[(a, b, w)] += 1
        return chord_class(a, b, w, *rest)

    def counted_half_disc(g, x):
        f1_evaluations[x.gid] += 1
        return half_disc(g, x)

    def counted_family(g, x1, x2):
        families.append((x1.gid, x2.gid))
        return family(g, x1, x2)

    def counted_entry(g, k1, k2):
        entries[(k1, k2)] += 1
        return entry_of(g, k1, k2)

    monkeypatch.setattr(cylinder, "Chord", counted_chord)
    monkeypatch.setattr(cylinder, "half_disc_d1", counted_half_disc)
    monkeypatch.setattr(cylinder, "half_disc_d2_family", counted_family)
    monkeypatch.setattr(cylinder, "_mu2_entry", counted_entry)

    g = CylinderGeometry(*ACCEPTANCE_GEOMETRY)
    assert check_ainfty(cylinder_category(g, BOUND), 4).ok
    F, _model, _objs = functor_F(g, BOUND)
    rep = check_functor(F, 2)
    assert rep.ok and rep.details["tuples_checked"] == 1386
    # F^2 = 0 is certified by the closure identity, not by building the
    # two-input half-disc family of each pair
    assert families == []
    # mu_2 entries run on keys and build no chord: only the basis (|w| <= 3)
    # and the chords F^1 meets (|w| <= 6) are built, 9 fibre pairs x 13
    assert len(built) == 117 and set(built.values()) == {1}
    # the basis (|w| <= 3) and the mu_2 outputs the functor equation meets
    # (|w| <= 6): 9 fibre pairs x 13
    assert len(f1_evaluations) == 117 and set(f1_evaluations.values()) == {1}
    # 27 fibre paths x 133 winding pairs with one winding in the basis
    assert len(entries) == 3591 and set(entries.values()) == {1}


def test_oracle_sweep_fills_each_entry_once_and_evaluates_corners_once_per_pair(monkeypatch):
    built = collections.Counter()
    entries = collections.Counter()
    corners = collections.Counter()
    kernel_calls = []
    chord_class, entry_of, corners_of = cylinder.Chord, cylinder._mu2_entry, cylinder._mu2_corners
    kernel = _kernels.triangle_grid_count

    def counted_chord(a, b, w, *rest):
        built[(a, b, w)] += 1
        return chord_class(a, b, w, *rest)

    def counted_entry(g, k1, k2):
        entries[(k1, k2)] += 1
        return entry_of(g, k1, k2)

    def counted_corners(g, k1, k2):
        corners[(k1, k2)] += 1
        return corners_of(g, k1, k2)

    def counted_kernel(*args):
        kernel_calls.append(args[-1])
        return kernel(*args)

    monkeypatch.setattr(cylinder, "Chord", counted_chord)
    monkeypatch.setattr(cylinder, "_mu2_entry", counted_entry)
    monkeypatch.setattr(cylinder, "_mu2_corners", counted_corners)
    monkeypatch.setattr(_kernels, "triangle_grid_count", counted_kernel)
    g = CylinderGeometry(*ACCEPTANCE_GEOMETRY)
    assert raster_cross_check(g, BOUND, (192, 384)).ok
    # 27 fibre paths x 49 winding pairs, each entry filled once
    assert len(entries) == 1323 and set(entries.values()) == {1}
    # one corner evaluation for the entry and one for both resolutions
    assert len(corners) == 1323 and set(corners.values()) == {2}
    assert len(kernel_calls) == 2646 and collections.Counter(kernel_calls) == {192: 1323, 384: 1323}
    # a passing sweep builds no chord: they are built only for a witness
    assert not built


@settings(max_examples=15, deadline=None)
@given(
    c=st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=12),
    fibers=st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda f: f < 1),
        min_size=1, max_size=3, unique=True,
    ),
    bound=st.integers(1, 2),
)
def test_structure_constants_read_the_table_as_mu_d_would(c, fibers, bound):
    """The table-read structure constants against a reference built from
    mu_d Chains, key order of the outer and inner dicts included."""
    g = CylinderGeometry(c, tuple(fibers))
    for twist, sign in TWISTS.items():
        reference = {
            (x1.gid, x2.gid): {
                gen.gid: coeff for gen, coeff in mu_d(g, (x1, x2), twist=sign).sorted_items()
            }
            for x1, x2 in ((g.chord_at(k1), g.chord_at(k2)) for k1, k2 in key_pairs(g, bound))
        }
        got = structure_constants(g, bound, twist)
        assert list(got) == list(reference)
        assert [list(v.items()) for v in got.values()] == [
            list(v.items()) for v in reference.values()
        ]
