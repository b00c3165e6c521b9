"""Exact interior-point count for the polygon oracle.

`triangle_grid_count` counts the points of a refined integer lattice
strictly inside a lattice triangle.  It sweeps the columns between the
triangle's leftmost and rightmost corners: each column holds the integers
strictly between its lower and upper edge, and the sum of the floors (or
ceilings) of one edge over a run of columns is a `_floor_sum`, computed
in O(log) of the coordinates.  Everything is integer arithmetic; there is
no grid of floats and no tolerance.
"""

from __future__ import annotations


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum(floor((a i + b) / m) for i in range(n)), for m > 0 and any
    integers a and b, by the Euclid-like reduction."""
    total = 0
    while n > 0:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def _column_sum(a, b, start: int, stop: int, ceil: bool) -> int:
    """Sum over the columns start <= x < stop of floor(y), or of ceil(y),
    where y is the height at x of the edge from a to b, a[0] < b[0]."""
    if stop <= start:
        return 0
    (xa, ya), (xb, yb) = a, b
    m, rise = xb - xa, yb - ya
    offset = ya * m + rise * (start - xa)
    if ceil:
        return -_floor_sum(stop - start, m, -rise, -offset)
    return _floor_sum(stop - start, m, rise, offset)


def triangle_grid_count(ax, ay, bx, by, cx, cy, nx, ny) -> int:
    """The number of points of the lattice (Z/nx) x (Z/ny) strictly inside
    the integer triangle ABC: with the corners scaled by nx and ny, the
    integer points strictly inside.  A degenerate triangle has none."""
    p0, p1, p2 = sorted(((ax * nx, ay * ny), (bx * nx, by * ny), (cx * nx, cy * ny)))
    cross = (p2[0] - p0[0]) * (p1[1] - p0[1]) - (p2[1] - p0[1]) * (p1[0] - p0[0])
    if cross == 0:
        return 0
    # the columns strictly between x0 and x2 hold the interior; the edge
    # p0 p2 spans them all, the chain through p1 switches edges after x1
    x0, x1, x2 = p0[0], p1[0], p2[0]
    upper = cross > 0  # p1 lies above the edge p0 p2
    chain = (_column_sum(p0, p1, x0 + 1, min(x1 + 1, x2), upper)
             + _column_sum(p1, p2, x1 + 1, x2, upper))
    long = _column_sum(p0, p2, x0 + 1, x2, not upper)
    top, bottom = (chain, long) if upper else (long, chain)
    return top - bottom - (x2 - x0 - 1)
