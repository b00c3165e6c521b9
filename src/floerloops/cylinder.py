"""A combinatorial wrapped Fukaya model of the cylinder T*S^1 with cotangent
fibres as objects, together with the comparison functor into twisted
complexes over the circle's path category.

Geometry.  The base circle has circumference 1 and the Hamiltonian is
globally quadratic, H = c p^2 with c > 0 rational, so the time-1 flow is
(q, p) -> (q + 2 c p, p).  A chord from the fibre at a to the fibre at b is
indexed by the integer winding w solving b - a + w = 2 c p; its action is
-c p^2 and its degree is 0 in the standard grading of fibres (validated
independently by `maslov_degree_oracle`).

Enumeration happens in the universal cover R^2: the fibre over a lifts to
the vertical lines q = a + n, and its time-s flow to lines q = a + n + 2cs p.
For a d-input operation the boundary lines carry slopes 2c(d - k),
k = 0..d, and the lifts are forced by the prescribed corner chords, so the
combinatorial moduli question is whether the forced corner configuration
bounds a rigid convex polygon.  Outputs are identified with unrescaled
chords through the Liouville rescaling isomorphism (winding is preserved;
momenta scale).

Lattice.  A geometry fixes one integer lattice at construction: D is the
lcm of the fibre denominators and N_i = D f_i.  The chord (a, b, w) is the
integer delta = N_b - N_a + w D; its momentum is delta / (2cD) and its action
-delta^2 / (4cD^2).  q is measured in units of 1/D and p in units of
1/(4cD), so the boundary line k of a d-input configuration is
2Q = 2A_k + (d - k)P with an integer offset A_k, every mu_2 corner is a
lattice point and the cross product of two lattice vectors counts cells of
area 1/(4cD^2).  Areas, energies and actions are compared in half cells,
1/(8cD^2), where all of them are integers: a chord's action is -2 delta^2.
c enters only through these units, so `rescaled` leaves the lattice, and
with it the mu_2 table, unchanged.

Tables.  Each geometry instance builds two tables once, on integer keys:
the chord table (a chord's key packs (a, b, w); its `Fraction` momentum and
action are derived once from delta) and the mu_2 table, from a pair of chord
keys to the (output key, polygon sign) terms.  `_mu2_corners` decodes both
keys with `divmod` and returns the output key, the two deltas and the three
lattice corners; `_mu2_entry` makes every check of the triangle model on
that, with no `Chord` or `Fraction`.  The categories, the functor, the
structure constants, the oracles and the export built on one geometry read
that table; a twist multiplies it by one sign (see `TWISTS`).  A `Chord` is
built only to decode a key: a basis element, an F^1 or export row, a witness.
The comparison functor keeps one more table, F^1 from a chord key to its one
term on the target's keys, filled the first time the functor equation meets
the chord.  F^2 has no table: it is zero on every pair (see `functor_F`).

Oracles.  Two independent checks decide on integers too.  The polygon
oracle (`raster_cross_check`) walks the chord keys pair by pair, computes
each pair's corners, edge gcds and cross product once, counts the lattice
points strictly inside the triangle on an r-fold refinement per resolution,
and requires Pick's theorem to hold exactly and the count to match the
table.  `rescaled` builds a new geometry, which fills its own table, so the
rescaling check compares independently computed entries.  The Maslov oracle
follows the flowed tangent direction through integer dot and cross products.

Signs of individual polygons come from the closed sign formulas (the
dagger sign and the background twist); there is no independent geometric
sign.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

from . import _kernels
from .ainfty import AInftyCategory, AInftyFunctor, CompositionError, KeyedOps
from .gradedalg import Chain, Generator, accumulate, sign_pow
from .moduli import StratifiedModuli, synthetic_half_disc_d2_dataset
from .pontryagin import CirclePathModel
from .report import CheckReport, failed, passed
from .twisted import ShiftedObject, TwistedComplex, tw_category


class CylinderConfigError(ValueError):
    """Invalid geometry or enumeration configuration."""


@dataclass(frozen=True)
class CylinderGeometry:
    """H = c p^2 on T*S^1 with marked cotangent fibres.

    Fibre positions are rationals in [0, 1); rational data keeps every chord
    momentum exact and every configuration decision integral.  `denominator`
    (D) and `lattice` (the N_i) fix the integer lattice; the chord and mu_2
    tables are filled on first use and shared by everything built on this
    instance (see the module docstring).
    """

    c: Fraction
    fibers: tuple[Fraction, ...]
    denominator: int = field(init=False, repr=False, compare=False)
    lattice: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _chords: dict = field(init=False, repr=False, compare=False)
    _mu2: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.c, Fraction):
            object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "fibers", tuple(Fraction(f) for f in self.fibers))
        if self.c <= 0:
            raise CylinderConfigError("hamiltonian coefficient c must be positive")
        if not self.fibers:
            raise CylinderConfigError("need at least one fibre")
        if len(set(self.fibers)) != len(self.fibers):
            raise CylinderConfigError("fibres must be pairwise distinct")
        if any(f < 0 or f >= 1 for f in self.fibers):
            raise CylinderConfigError("fibre positions must lie in [0, 1)")
        D = math.lcm(*(f.denominator for f in self.fibers))
        object.__setattr__(self, "denominator", D)
        object.__setattr__(
            self, "lattice", tuple(f.numerator * (D // f.denominator) for f in self.fibers)
        )
        object.__setattr__(self, "_chords", {})
        object.__setattr__(self, "_mu2", {})

    def nfibers(self) -> int:
        return len(self.fibers)

    def rescaled(self, rho: Fraction) -> "CylinderGeometry":
        """Geometry after the Liouville rescaling p -> rho p: every chord
        momentum scales by rho while windings are unchanged, which is
        achieved by c -> c / rho."""
        rho = Fraction(rho)
        if rho <= 0:
            raise CylinderConfigError("rescaling factor must be positive")
        return CylinderGeometry(self.c / rho, self.fibers)

    def key(self, a: int, b: int, winding: int) -> int:
        """The chord table key of the chord (a, b, winding)."""
        n = len(self.fibers)
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"no fibre pair ({a}, {b}) among {n} fibres")
        return (winding * n + a) * n + b

    def delta(self, x: "Chord") -> int:
        """The chord's lattice value N_b - N_a + w D."""
        return self.lattice[x.target] - self.lattice[x.source] + x.winding * self.denominator

    def half_cells(self, n: int) -> Fraction:
        """An area of n half cells, n / (8cD^2)."""
        return Fraction(n * self.c.denominator, 8 * self.c.numerator * self.denominator ** 2)

    def chord_at(self, key: int) -> "Chord":
        """The chord of a key, built once per geometry."""
        x = self._chords.get(key)
        if x is None:
            a, b, winding = _decode(self, key)
            delta = self.lattice[b] - self.lattice[a] + winding * self.denominator
            x = self._chords[key] = Chord(
                a, b, winding,
                Fraction(delta * self.c.denominator, 2 * self.c.numerator * self.denominator),
                0,
                self.half_cells(-2 * delta * delta),
            )
        return x

    def mu2_terms(self, k1: int, k2: int) -> tuple[tuple[int, int], ...]:
        """The (output key, polygon sign) terms of mu_2 on two chord keys in
        composition order, filled by `_mu2_entry` the first time."""
        terms = self._mu2.get((k1, k2))
        if terms is None:
            terms = self._mu2[(k1, k2)] = _mu2_entry(self, k1, k2)
        return terms


@dataclass(frozen=True)
class Chord:
    """A time-1 Hamiltonian chord between fibres, indexed by winding."""

    source: int
    target: int
    winding: int
    momentum: Fraction
    degree: int
    action: Fraction

    @property
    def gid(self) -> tuple:
        return ("x", self.source, self.target, self.winding)

    def generator(self) -> Generator:
        return Generator(self.gid, self.degree)


def chord(g: CylinderGeometry, a: int, b: int, winding: int) -> Chord:
    return g.chord_at(g.key(a, b, winding))


def _key(g: CylinderGeometry, x: Chord) -> int:
    return g.key(x.source, x.target, x.winding)


def _decode(g: CylinderGeometry, key: int) -> tuple[int, int, int]:
    """The (source, target, winding) of a chord key."""
    n = len(g.fibers)
    rest, b = divmod(key, n)
    winding, a = divmod(rest, n)
    return a, b, winding


def enumerate_chords(
    g: CylinderGeometry, a: int, b: int, winding_bound: int
) -> list[Chord]:
    """All chords from fibre a to fibre b with |winding| <= bound, sorted by
    action (ties broken by winding)."""
    if winding_bound < 0:
        raise CylinderConfigError("winding_bound must be >= 0")
    out = [chord(g, a, b, w) for w in range(-winding_bound, winding_bound + 1)]
    if len({g.delta(x) for x in out}) != len(out):
        raise CylinderConfigError("degenerate chord detected: colliding momenta")
    # the action -delta^2 / (4cD^2) orders as -delta^2
    return sorted(out, key=lambda x: (-g.delta(x) ** 2, x.winding))


def _key_pairs(g: CylinderGeometry, bound: int) -> Iterator[tuple[int, int]]:
    """The keys of every composable chord pair with both windings in
    [-bound, bound]: by fibre path (a, b, c), then by w1, then by w2.  A
    negative bound is refused at the call."""
    if bound < 0:
        raise CylinderConfigError("winding_bound must be >= 0")
    n = g.nfibers()
    windings = range(-bound, bound + 1)
    return (((w1 * n + a) * n + b, (w2 * n + b) * n + c)
            for a, b, c in itertools.product(range(n), repeat=3)
            for w1 in windings for w2 in windings)


def chord_pairs(g: CylinderGeometry, bound: int) -> Iterator[tuple[Chord, Chord]]:
    """Every composable chord pair (x1, x2) in `_key_pairs` order."""
    for k1, k2 in _key_pairs(g, bound):
        yield g.chord_at(k1), g.chord_at(k2)


# ---------------------------------------------------------------------------
# Independent Maslov-degree oracle.
# ---------------------------------------------------------------------------

def _rotation_degree(c_num: int, c_den: int, steps: int) -> int:
    """Brute-force Maslov index of the fibre's time-1 tangent path.

    The flowed tangent line at time t = n / steps is spanned by (2ct, 1), a
    positive multiple of the integer direction (2 c_num n, steps c_den).  A
    step turns the line by less than pi/2 iff the dot product of consecutive
    directions is positive; then the continuous lift, started at the
    vertical, never flips the direction, and the net sweep in units of pi
    lies in (-1/2, 1/2).  Its ceiling is 1 iff the final direction lies
    counterclockwise of the vertical, which is the sign of their cross
    product.
    """
    prev = (0, steps * c_den)
    for n in range(1, steps + 1):
        cur = (2 * c_num * n, steps * c_den)
        if prev[0] * cur[0] + prev[1] * cur[1] <= 0:
            raise ArithmeticError("rotation oracle step turns by pi/2 or more; refine steps")
        prev = cur
    vertical = (0, 1)
    cross = vertical[0] * prev[1] - vertical[1] * prev[0]
    return 1 if cross > 0 else 0


def maslov_degree_oracle(g: CylinderGeometry, x: Chord, steps: int = 512) -> int:
    """Degree of a fibre-to-fibre chord from the rotation count of the
    explicit Lagrangian tangent path; independent of the assigned grading.
    The path is the same for every chord (see `maslov_cross_check`)."""
    _positive_ints((steps,), "rotation step counts")
    return _rotation_degree(g.c.numerator, g.c.denominator, steps)


# ---------------------------------------------------------------------------
# Polygons for the higher products.
# ---------------------------------------------------------------------------

def _mu2_corners(g: CylinderGeometry, k1: int, k2: int):
    """The output key, delta_1, delta_2 and the corners (P0, P1, P2) of the
    mu_2 configuration on two chord keys, as lattice points: P0 on the
    boundary lines 0 and 2, P1 on lines 0 and 1, P2 on lines 1 and 2.

    Line k is 2Q = 2A_k + (2 - k)P, with A_0 the lift of the first fibre and
    A_k that of the k-th chord's target after the windings so far.  Each
    pair of lines meets at an integer point: P0 = (A_2, A_2 - A_0),
    P1 = (2A_1 - A_0, 2(A_1 - A_0)) and P2 = (A_2, 2(A_2 - A_1)).
    """
    n = len(g.fibers)
    rest, b = divmod(k1, n)
    w1, a = divmod(rest, n)
    rest, c = divmod(k2, n)
    w2, b2 = divmod(rest, n)
    if b != b2:
        raise CompositionError(f"chords not composable: {('x', a, b, w1)} then {('x', b2, c, w2)}")
    N, D = g.lattice, g.denominator
    A0 = N[a]
    A1 = N[b] + w1 * D
    A2 = N[c] + (w1 + w2) * D
    out = ((w1 + w2) * n + a) * n + c
    return out, A1 - A0, A2 - A1, ((A2, A2 - A0), (2 * A1 - A0, 2 * (A1 - A0)), (A2, 2 * (A2 - A1)))


def _cross(P0: tuple[int, int], P1: tuple[int, int], P2: tuple[int, int]) -> int:
    return (P1[0] - P0[0]) * (P2[1] - P0[1]) - (P1[1] - P0[1]) * (P2[0] - P0[0])


def _mu2_entry(g: CylinderGeometry, k1: int, k2: int) -> tuple[tuple[int, int], ...]:
    """The mu_2 table entry of two chord keys in composition order: the
    (output key, sign) term of the one rigid triangle.

    The lifts are forced by the corners, so exactly one candidate exists; it
    is the honest triangle bounded by the three lines, or the constant
    configuration when all corners coincide.  Every decision is an integer
    identity on the lattice of `_mu2_corners`: areas, energies and actions
    are in half cells, where a chord's action is -2 delta^2.  Once the
    orientation check has passed, cross = -(delta_1 - delta_2)^2, and the
    order, energy and action checks below follow from it: they stay as the
    model's statement, but no corner data that passes orientation fails them.
    """
    out, d1, d2, (P0, P1, P2) = _mu2_corners(g, k1, k2)
    a, c, w = _decode(g, out)
    if g.lattice[c] - g.lattice[a] + w * g.denominator != d1 + d2:
        raise AssertionError("output corner does not close up")

    # the cross product, in cells, is -(delta_1 - delta_2)^2 only when the
    # intersected corners sit at the chords' momenta 2 delta_1 and 2 delta_2
    cross = _cross(P0, P1, P2)
    if cross != -(d1 - d2) ** 2:
        raise AssertionError("corner orientation does not match the model")
    degenerate = d1 == d2
    if degenerate and not (P1 == P2 == P0):
        raise AssertionError("degenerate configuration with distinct corners")
    if not degenerate and cross >= 0:
        raise AssertionError("triangle corners in counterclockwise order; invalid count")

    # in half cells: the output's action weighted by 1/2, and the inputs'
    area = -cross
    weighted = -(d1 + d2) ** 2
    inputs = -2 * (d1 * d1 + d2 * d2)
    energy = weighted - inputs
    if area != energy:
        raise AssertionError(f"energy identity violated: area {area} != {energy}")
    if weighted < inputs:
        raise AssertionError("weighted output action below input action sum")
    return ((out, 1),)


def mu_polygons(g: CylinderGeometry, chords: tuple[Chord, ...]) -> list[tuple[int, int]]:
    """The rigid polygons with the prescribed corner chords, as (output key,
    sign) terms.

    For d = 2 these are the mu_2 table's terms, which `_mu2_entry` checked.
    For d >= 3 the candidate sits in a (d-2)-parameter family of conformal
    structures and is never rigid; with all chords in degree 0 the index
    also forbids an output, so the rigid count is empty.
    """
    d = len(chords)
    if d < 2:
        raise ValueError("polygon enumeration needs d >= 2")
    for x, y in zip(chords, chords[1:]):
        if x.target != y.source:
            raise CompositionError(f"chords not composable: {x.gid} then {y.gid}")
    if d >= 3:
        # the configuration exists but its expected dimension d-2 is positive
        return []
    return list(g.mu2_terms(_key(g, chords[0]), _key(g, chords[1])))


# A background class b twists each polygon's sign by (-1)^(N_b).  On T*S^1,
# H^2(M; Z/2) = 0, and a twist is one global sign on mu_2 and F^1.  A sign
# read from the output winding alone could do no more: the d = 3 relation on
# (x_w1, x_w2, x_w3) weighs its two terms by N_b(w1 + w2) and N_b(w2 + w3),
# so it holds in every window only for a constant N_b.  A genuine cocycle
# such as (-1)^(w1 w2) reads the input windings instead.
TWISTS: dict[str, int] = {"none": 1, "constant": -1}


def twist_sign(name: str) -> int:
    """The sign of the twist called `name`; any other value is a config error."""
    sign = TWISTS.get(name) if isinstance(name, str) else None
    if sign is None:
        raise CylinderConfigError(f"unknown twist {name!r}")
    return sign


def _signed_mu2(g: CylinderGeometry, k1: int, k2: int, twist: int) -> tuple[tuple[int, int], ...]:
    """mu_2 on two chord keys as (output key, coeff) terms: the geometry's
    table times the twist's sign.  The dagger sign (-1)^(|x_1| + 2|x_2|) is
    +1, since every chord has degree 0."""
    # a list, not a generator: tuple() of a generator allocates 10 slots and
    # shrinks, which costs the oracle sweep about 90 KB of traced peak
    return tuple([(key, twist * s) for key, s in g.mu2_terms(k1, k2)])


def mu_d(g: CylinderGeometry, chords: tuple[Chord, ...], twist: int = 1) -> Chain:
    """The d-input product on chords: signed rigid polygon count, with the
    dagger sign sum_k k |x_k| and the twist's sign, as a chain on the
    unrescaled output chord."""
    if len(chords) != 2:
        mu_polygons(g, chords)  # raises below d = 2; no rigid polygon above
        return Chain.zero()
    acc: dict[Generator, int] = {}
    for key, coeff in _signed_mu2(g, _key(g, chords[0]), _key(g, chords[1]), twist):
        accumulate(acc, ((g.chord_at(key).generator(), coeff),), 1)
    return Chain.from_sums(acc)


# ---------------------------------------------------------------------------
# Intersection points, half-discs and the functor.
# ---------------------------------------------------------------------------

def intersection_points(g: CylinderGeometry, fiber: int) -> list[tuple[tuple[Fraction, Fraction], int]]:
    """Q intersects each fibre transversely in the single point (q, 0), of
    degree 0."""
    return [((g.fibers[fiber], Fraction(0)), 0)]


def connection_from_strips(
    point_degrees: tuple[int, ...],
    strip_chains: Mapping[tuple[int, int], Chain],
) -> dict[tuple[int, int], Chain]:
    """Connection entries from evaluated strip fundamental chains, with the
    sign (-1)**(|q^i| (|q^j| + 1)) of the twisted-complex construction."""
    out = {}
    for (i, j), ev_chain in strip_chains.items():
        sgn = sign_pow(point_degrees[i] * (point_degrees[j] + 1))
        entry = ev_chain.scale(sgn)
        if not entry.is_zero():
            out[(i, j)] = entry
    return out


def build_F_object(
    g: CylinderGeometry, fiber: int, model: CirclePathModel
) -> TwistedComplex:
    """The twisted complex of a fibre: one summand per intersection point,
    shifted by minus its degree, with connection from strip moduli.  For
    fibres the intersection is one degree-0 point and the connection is
    empty."""
    pts = intersection_points(g, fiber)
    degrees = tuple(deg for _, deg in pts)
    summands = [ShiftedObject(fiber, -deg) for _, deg in pts]
    D = connection_from_strips(degrees, {})
    return TwistedComplex(model, summands, D, name=f"F{fiber}")


@dataclass(frozen=True)
class HalfDisc:
    """A rigid combinatorial half-disc with its boundary evaluation; its
    vertices are lattice points (Q, P) of the geometry."""

    vertices: tuple[tuple[int, int], ...]
    chords: tuple[tuple, ...]
    winding: int
    displacement: Fraction
    area: Fraction


def half_disc_d1(g: CylinderGeometry, x: Chord) -> HalfDisc:
    """The unique half-disc with one chord input: in the cover it is the
    region bounded by the two fibre lifts, the chord and the zero section.
    The outgoing boundary arc has displacement (b + w) - a, which is delta in
    units of 1/D, and the corner sits at momentum 2 delta in units of
    1/(4cD)."""
    a = g.lattice[x.source]
    delta = g.delta(x)
    v0, v1, corner = (a, 0), (a + delta, 0), (a + delta, 2 * delta)
    # the area in half cells is |cross|; the action is -2 delta^2
    area = abs(_cross(v0, v1, corner))
    if area != 2 * delta * delta:
        raise AssertionError("half-disc energy identity violated")
    return HalfDisc(
        vertices=(v0, v1, corner),
        chords=(x.gid,),
        winding=x.winding,
        displacement=Fraction(delta, g.denominator),
        area=g.half_cells(area),
    )


def half_disc_d2_family(
    g: CylinderGeometry, x1: Chord, x2: Chord
) -> tuple[StratifiedModuli, dict]:
    """The 1-dimensional two-input half-disc family and its evaluation data.

    Its interval ends are the outgoing-segment break (two one-input
    half-discs, flat sign) and the disc bubble (a one-input half-disc on the
    product chord together with the mu_2 triangle, sharp sign).  All strata
    evaluate with the same total displacement (the triangle's output corner
    closes up, which `_mu2_entry` checks), so the family's evaluation is
    constant: its image is degenerate in normalised chains.
    """
    ((_, triangle_sign),) = g.mu2_terms(_key(g, x1), _key(g, x2))  # refuses x1, x2 unless composable
    y = chord(g, x1.source, x2.target, x1.winding + x2.winding)
    dataset = synthetic_half_disc_d2_dataset(0, x1.degree, x2.degree, -x1.degree - x2.degree,
                                             triangle_sign, f"hdfam-{x1.gid}-{x2.gid}")
    ev = {
        "total_displacement": half_disc_d1(g, y).displacement,
        "total_winding": x1.winding + x2.winding,
        "constant_evaluation": True,
    }
    return dataset, ev


def half_disc_d2_families(g: CylinderGeometry, bound: int) -> list[StratifiedModuli]:
    """One two-input half-disc family per (x1 degree, x2 degree, triangle
    sign), all a family depends on, first seen in `chord_pairs(g, bound)`."""
    firsts: dict[tuple, tuple[Chord, Chord]] = {}
    for x1, x2 in chord_pairs(g, bound):
        ((_, sign),) = g.mu2_terms(_key(g, x1), _key(g, x2))
        firsts.setdefault((x1.degree, x2.degree, sign), (x1, x2))
    return [half_disc_d2_family(g, x1, x2)[0] for x1, x2 in firsts.values()]


# ---------------------------------------------------------------------------
# The wrapped category and the comparison functor.
# ---------------------------------------------------------------------------

def cylinder_category(
    g: CylinderGeometry, winding_bound: int, twist: str = "none"
) -> AInftyCategory:
    """The wrapped category on the marked fibres: hom bases are chords with
    |winding| <= bound; operations are evaluated exactly and are defined on
    all chords (enumeration windows never truncate products).

    The arity support is {2}.  mu_1 counts no rigid strip: both boundary
    arcs of a strip lie on straight lines in the cover, two transverse lines
    bound no compact bigon, the only coincident configuration is the
    constant strip, which is not rigid, and the index condition
    |x_0| = |x_1| + 1 fails since every chord has degree 0.  For d >= 3 the
    forced corner configuration sits in a family of conformal structures of
    dimension d - 2 > 0, so it is never rigid, and the index forbids it too:
    mu_d needs an output of degree 2 - d < 0 and every chord has degree 0
    (`mu_polygons` returns no polygon there).

    The checker runs on chord keys (`keyed`): mu_2 of a key pair is the
    geometry's shared table with this category's twist applied,
    kept per pair as (key, coeff) terms.  Translating a chord by winding k
    adds k n^2 to its key; the keys declare that `translation`, and
    `check_ainfty` verifies that mu_2 commutes with it on every entry the
    d = 3 relation reads before it visits one tuple per fibre path."""
    if winding_bound < 1:
        raise CylinderConfigError("winding_bound must be >= 1")
    sign = twist_sign(twist)

    n = g.nfibers()
    objects = tuple(range(n))
    hom_keys = {
        (a, b): tuple(_key(g, x) for x in enumerate_chords(g, a, b, winding_bound))
        for a in objects for b in objects
    }
    terms: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def mu(keys: tuple) -> tuple[tuple[int, int], ...]:
        if len(keys) != 2:
            return ()
        out = terms.get(keys)
        if out is None:
            out = terms[keys] = _signed_mu2(g, keys[0], keys[1], sign)
        return out

    def degree(key: int) -> int:
        return 0  # every chord has degree 0

    decoded: dict[int, Generator] = {}

    def decode(key: int) -> Generator:
        gen = decoded.get(key)
        if gen is None:
            gen = decoded[key] = g.chord_at(key).generator()
        return gen

    def encode(gen: Generator) -> int:
        _tag, a, b, w = gen.gid
        return g.key(a, b, w)

    def translation(key: int) -> tuple[int, int]:
        return divmod(key, n * n)  # (winding, the winding-0 chord's key)

    return AInftyCategory(
        f"CW(c={g.c},fibres={len(g.fibers)},w<={winding_bound})",
        objects,
        hom_keys,
        KeyedOps(mu, degree, decode, encode, translation=translation),
        arities={2},
    )


def structure_constants(
    g: CylinderGeometry, winding_bound: int, twist: str = "none"
) -> dict[tuple, dict[tuple, int]]:
    """All mu_2 structure constants within the winding bound, keyed by input
    gids; used by the rescaling-invariance and twist comparisons."""
    sign = twist_sign(twist)
    gid = functools.cache(lambda key: ("x", *_decode(g, key)))
    return {
        (gid(k1), gid(k2)): {
            # a table entry has one term, so this is mu_d's sorted chain
            gid(key): sign * s
            for key, s in g.mu2_terms(k1, k2)
        }
        for k1, k2 in _key_pairs(g, winding_bound)
    }


def pontryagin_target(g: CylinderGeometry) -> CirclePathModel:
    """The path model on the fibre basepoints (Q cap L per fibre)."""
    return CirclePathModel(g.fibers)


def functor_F(
    g: CylinderGeometry, winding_bound: int, twist: str = "none"
) -> tuple[AInftyFunctor, CirclePathModel, list[TwistedComplex]]:
    """The comparison functor from the wrapped category into twisted
    complexes over the circle's path category, on the two categories' keys.

    F^1 sends a chord to the evaluation of its unique half-disc, with the
    sign (-1)**(|x| + (|q_0|+1)(|x| + |q_1|)) times the twist's sign.  F^2
    is the evaluation of the two-input half-disc family
    (`half_disc_d2_family`), constant because the product chord's delta is
    the sum of the inputs': the closure identity `_mu2_entry` asserts for
    every pair the functor equation reads.
    A constant family pushes forward to a degenerate cube, which vanishes in
    normalised chains, so F^2 = 0.  F^d for d > 2 lands in negative degrees
    of a degree-0 target.  So F's support is {1}, and F^1 is one table on
    chord keys, filled on first use.
    """
    sign = twist_sign(twist)
    model = pontryagin_target(g)
    objects = list(range(g.nfibers()))
    f_objs = [build_F_object(g, L, model) for L in objects]
    source = cylinder_category(g, winding_bound, twist=twist)
    # any window: nothing enumerates the target, and `encode` interns the
    # loop of any winding on first use
    target = tw_category(model, f_objs, name="TwP")
    object_map = {L: f_objs[L].name for L in objects}
    encode = target.keyed.encode
    f1: dict[int, tuple[tuple[int, int], ...]] = {}

    def f1_terms(key: int) -> tuple[tuple[int, int], ...]:
        x = g.chord_at(key)
        disc = half_disc_d1(g, x)
        deg_q0 = deg_q1 = 0
        coeff = sign_pow(x.degree + (deg_q0 + 1) * (x.degree + deg_q1))
        coeff *= sign
        path_gid = ("p", x.source, x.target, disc.winding)
        out = Generator(("m", object_map[x.source], 0, object_map[x.target], 0, path_gid), 0)
        return ((encode(out), coeff),)

    def components(keys: tuple) -> tuple[tuple[int, int], ...]:
        if len(keys) != 1:
            return ()
        terms = f1.get(keys[0])
        if terms is None:
            terms = f1[keys[0]] = f1_terms(keys[0])
        return terms

    F = AInftyFunctor(source, target, object_map, components, arities={1}, name="F")
    return F, model, f_objs


def ring_isomorphism_report(F: AInftyFunctor, fiber: int = 0) -> CheckReport:
    """Theorem check at the circle: the comparison functor's F^1 restricted
    to one fibre is a degree-0 basis bijection onto the circle's loop
    classes that preserves winding and sends the unit chord to the constant
    loop (up to sign).  That it intertwines mu_2 with concatenation is the
    d = 2 functor equation, which `check_functor` decides."""
    name = "ring-isomorphism"
    source, target = F.source.kernel_ops(), F.target.kernel_ops()
    basis = F.source.hom_keys[(fiber, fiber)]
    unit_image = None
    for key in basis:
        x = source.decode(key)
        terms = tuple(F.components((key,)))
        if len(terms) != 1:
            return failed(name, {"chord": x.gid, "reason": "image not a basis element"})
        ((out, coeff),) = terms
        gen = target.decode(out)
        if abs(coeff) != 1 or gen.degree != 0:
            return failed(name, {"chord": x.gid, "reason": f"image {coeff}*{gen.gid}"})
        # the chords have distinct windings, so preserving winding is injective
        path_gid = gen.gid[5]
        if path_gid[3] != x.gid[3]:
            return failed(name, {"chord": x.gid, "reason": f"winding image {path_gid}"})
        if path_gid[3] == 0:
            unit_image = (path_gid, coeff)
    return passed(name, basis_size=len(basis), unit_image=unit_image)


# ---------------------------------------------------------------------------
# Lattice-count oracle for the triangle counts.
# ---------------------------------------------------------------------------

def _positive_ints(values: tuple, what: str) -> None:
    """Refuse an empty sweep or a non-positive value: an oracle would compare nothing."""
    if not values or any(type(v) is not int or v < 1 for v in values):
        raise CylinderConfigError(f"{what} must be positive ints, got {values!r}")


def _raster_counts(g: CylinderGeometry, k1: int, k2: int, resolutions: tuple[int, ...]) -> list[int]:
    """Independent counts of the region cut out by the three boundary lines
    of a pair of chord keys, decided exactly on the geometry's own lattice,
    one per resolution, from one evaluation of the corners.

    The corners are lattice points (Q, P), and (q, p) is a positive diagonal
    scaling of (Q, P), so interiors and area ratios carry over unchanged.
    A resolution r refines the lattice r-fold in each direction: the
    kernel counts the I refined points strictly inside the triangle, B is
    the number of refined points on its boundary (from the edge gcds), and
    Pick's theorem |cross| r^2 = 2I + B - 2 must hold exactly.  A count is 1
    for a confirmed triangle (I > 0 and Pick's identity) or a confirmed
    constant configuration (coincident corners, I == 0), else 0.
    """
    _, _, _, (P0, P1, P2) = _mu2_corners(g, k1, k2)
    coincident = P0 == P1 == P2
    edges = (math.gcd(P1[0] - P0[0], P1[1] - P0[1]) + math.gcd(P2[0] - P1[0], P2[1] - P1[1])
             + math.gcd(P0[0] - P2[0], P0[1] - P2[1]))
    cells = abs(_cross(P0, P1, P2))
    counts = []
    for r in resolutions:
        # through the module at each call, so a replaced kernel is the one counted
        interior = _kernels.triangle_grid_count(*P0, *P1, *P2, r, r)
        ok = interior == 0 if coincident else interior > 0 and cells * r * r == 2 * interior + r * edges - 2
        counts.append(1 if ok else 0)
    return counts


def mu2_raster_count(g: CylinderGeometry, x1: Chord, x2: Chord, resolution: int) -> int:
    """The raster count of one chord pair at one resolution (see `_raster_counts`)."""
    _positive_ints((resolution,), "raster resolutions")
    (count,) = _raster_counts(g, _key(g, x1), _key(g, x2), (resolution,))
    return count


def raster_cross_check(
    g: CylinderGeometry, winding_bound: int, resolutions: tuple[int, ...] = (192, 384)
) -> CheckReport:
    """Compare |mu_2| with the exact lattice count for every composable
    chord pair within the bound, at each refinement."""
    name = "mu2-raster-oracle"
    _positive_ints(resolutions, "raster resolutions")
    pairs = 0
    for pairs, (k1, k2) in enumerate(_key_pairs(g, winding_bound), 1):
        exact = len(g.mu2_terms(k1, k2))
        for res, raster in zip(resolutions, _raster_counts(g, k1, k2, resolutions)):
            if raster != exact:
                return failed(name, {"pair": (g.chord_at(k1).gid, g.chord_at(k2).gid),
                                     "resolution": res, "exact": exact, "raster": raster})
    return passed(name, pairs=pairs, resolutions=list(resolutions))


def maslov_cross_check(
    g: CylinderGeometry, winding_bound: int, steps: tuple[int, int] = (256, 1024)
) -> CheckReport:
    """Compare the assigned chord degrees against the rotation-number
    oracle at two step counts.

    The time-1 flow of H = c p^2 is the same shear (q, p) -> (q + 2cp, p) at
    every point, so every fibre's tangent line follows the same path and the
    oracle's degree depends only on c: it is computed once per step count.
    """
    name = "maslov-oracle"
    _positive_ints(steps, "rotation step counts")
    n = g.nfibers()
    degrees = [_rotation_degree(g.c.numerator, g.c.denominator, s) for s in steps]
    checked = 0
    for a, b in itertools.product(range(n), repeat=2):
        for x in enumerate_chords(g, a, b, winding_bound):
            for got in degrees:
                if got != x.degree:
                    return failed(name, {"chord": x.gid, "assigned": x.degree, "oracle": got})
            checked += 1
    return passed(name, chords=checked, steps=list(steps))
