from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from floerloops import _kernels
from floerloops.cylinder import (
    CylinderConfigError,
    CylinderGeometry,
    chord,
    key_pairs,
    raster_cross_check,
)


def brute_count(ax, ay, bx, by, cx, cy, nx, ny):
    """Reference double loop: refined lattice points strictly inside, i.e.
    strictly on the inner side of all three edges."""
    pts = [(ax * nx, ay * ny), (bx * nx, by * ny), (cx * nx, cy * ny)]
    (x0, y0), (x1, y1), (x2, y2) = pts
    orient = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    if orient == 0:
        return 0
    count = 0
    for px in range(min(x0, x1, x2), max(x0, x1, x2) + 1):
        for py in range(min(y0, y1, y2), max(y0, y1, y2) + 1):
            sides = [
                (xb - xa) * (py - ya) - (yb - ya) * (px - xa)
                for (xa, ya), (xb, yb) in zip(pts, pts[1:] + pts[:1])
            ]
            count += all(s * orient > 0 for s in sides)
    return count


def boundary_count(tri, nx, ny):
    ax, ay, bx, by, cx, cy = tri
    return sum(
        gcd((u - v) * nx, (s - t) * ny)
        for (u, s), (v, t) in (((ax, ay), (bx, by)), ((bx, by), (cx, cy)), ((cx, cy), (ax, ay)))
    )


def twice_area(tri):
    ax, ay, bx, by, cx, cy = tri
    return abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


@st.composite
def triangles(draw):
    """Integer triangles, with vertical and horizontal edges, collinear and
    coincident corners drawn on purpose."""
    coord = st.integers(-6, 6)
    a = (draw(coord), draw(coord))
    kind = draw(st.sampled_from(["free", "vertical", "horizontal", "collinear", "coincident"]))
    if kind == "coincident":
        corners = [a, a, a]
    elif kind == "collinear":
        v = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        k, m = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        corners = [a, (a[0] + k * v[0], a[1] + k * v[1]), (a[0] + m * v[0], a[1] + m * v[1])]
    else:
        b = (draw(coord), draw(coord))
        if kind == "vertical":
            b = (a[0], b[1])
        elif kind == "horizontal":
            b = (b[0], a[1])
        corners = [a, b, (draw(coord), draw(coord))]
    corners = draw(st.permutations(corners))
    return tuple(v for p in corners for v in p)


refinements = st.integers(1, 5)


@settings(max_examples=300, deadline=None)
@given(triangles(), refinements, refinements)
def test_kernel_matches_brute_force(tri, nx, ny):
    assert _kernels.triangle_grid_count(*tri, nx, ny) == brute_count(*tri, nx, ny)


@settings(max_examples=300, deadline=None)
@given(triangles(), st.integers(1, 400), st.integers(1, 400))
def test_kernel_satisfies_pick(tri, nx, ny):
    if twice_area(tri) == 0:
        assert _kernels.triangle_grid_count(*tri, nx, ny) == 0
        return
    interior = _kernels.triangle_grid_count(*tri, nx, ny)
    assert twice_area(tri) * nx * ny == 2 * interior + boundary_count(tri, nx, ny) - 2


TRIANGLES = [
    (0, 0, 1, 0, 0, 1),
    (0, 0, 4, 1, -2, 3),
    (0, 0, 1, 1, 2, 2),  # degenerate: collinear
    (3, -1, 3, 2, -2, 0),  # a vertical edge
]


@pytest.mark.parametrize("tri", TRIANGLES)
def test_numpy_matches_reference(tri):
    """The fixed triangles against the reference loop. The name is kept from
    the numpy kernel this exact integer kernel replaced."""
    for nx, ny in ((7, 7), (16, 16), (3, 11)):
        assert _kernels.triangle_grid_count(*tri, nx, ny) == brute_count(*tri, nx, ny)


def test_degenerate_triangle_has_no_interior():
    assert _kernels.triangle_grid_count(0, 0, 1, 1, 2, 2, 64, 64) == 0
    assert _kernels.triangle_grid_count(1, 1, 1, 1, 1, 1, 64, 64) == 0


def test_interior_fraction_approaches_half():
    # the unit right triangle fills half of its bounding box
    n = 200
    count = _kernels.triangle_grid_count(0, 0, 1, 0, 0, 1, n, n)
    assert abs(count / (n * n) - 0.5) < 0.01


def _geometry():
    return CylinderGeometry(Fraction(1), (Fraction(0), Fraction(1, 3)))


def test_cross_check_fails_when_the_kernel_undercounts(monkeypatch):
    g = _geometry()
    exact = _kernels.triangle_grid_count
    pairs = [(g.chord_at(k1), g.chord_at(k2)) for k1, k2 in key_pairs(g, 1)]
    # every count one short: the first pair has coincident corners and fails
    monkeypatch.setattr(_kernels, "triangle_grid_count", lambda *args: exact(*args) - 1)
    rep = raster_cross_check(g, 1, (8, 16))
    x1, x2 = pairs[0]
    assert not rep.ok
    assert rep.witness == {"pair": (x1.gid, x2.gid), "resolution": 8, "exact": 1, "raster": 0}
    # only non-empty counts one short: Pick's identity fails on the first triangle
    monkeypatch.setattr(_kernels, "triangle_grid_count", lambda *args: max(exact(*args) - 1, 0))
    rep = raster_cross_check(g, 1, (8, 16))
    x1, x2 = next((x1, x2) for x1, x2 in pairs if g.delta(x1) != g.delta(x2))
    assert not rep.ok
    assert rep.witness == {"pair": (x1.gid, x2.gid), "resolution": 8, "exact": 1, "raster": 0}


def test_cross_check_fails_when_a_product_is_dropped(monkeypatch):
    g = _geometry()
    x1, x2 = chord(g, 0, 1, 1), chord(g, 1, 1, -1)
    dropped = (g.key(0, 1, 1), g.key(1, 1, -1))
    terms = CylinderGeometry.mu2_terms
    monkeypatch.setattr(
        CylinderGeometry, "mu2_terms",
        lambda self, k1, k2: () if (k1, k2) == dropped else terms(self, k1, k2),
    )
    rep = raster_cross_check(g, 1, (8, 16))
    assert not rep.ok
    assert rep.witness == {"pair": (x1.gid, x2.gid), "resolution": 8, "exact": 0, "raster": 1}


@pytest.mark.parametrize("resolution", [0, -1, 1.5])
def test_raster_count_rejects_bad_resolution(resolution):
    with pytest.raises(CylinderConfigError):
        raster_cross_check(_geometry(), 1, (resolution,))
