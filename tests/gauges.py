"""Orientation-token gauges as wrappers over a category or a functor.

A gauge t assigns a sign to each basis generator (by gid; absent gids get
+1) and replaces every basis element x by t(x) x.  It rescales the
structure maps, mu(x_1, ..., x_d) = sum c_y y becoming
t(x_1)...t(x_d) sum c_y t(y) y, and F^d by t(x_1)...t(x_d), and every
checker must give the same verdict under it.  The program has no token
input: a sign change of a basis element is a coefficient, and these
wrappers apply it the way `cli.MUTATIONS` wraps a report row's input.
"""

import dataclasses


def _signs(ops, tokens):
    """t on kernel keys, decoded once per key."""
    memo = {}

    def t(key):
        sign = memo.get(key)
        if sign is None:
            sign = memo[key] = tokens.get(ops.decode(key).gid, 1)
        return sign

    return t


def gauged(cat, tokens):
    """`cat` with its keyed mu multiplied by t(x_1)...t(x_d) t(y)."""
    ops = cat.kernel_ops()
    t = _signs(ops, tokens)

    def mu(keys):
        sign = 1
        for key in keys:
            sign *= t(key)
        return tuple((y, sign * c * t(y)) for y, c in ops.mu(keys))

    return dataclasses.replace(cat, mu_fn=None, keyed=dataclasses.replace(ops, mu=mu))


def gauged_functor(F, tokens):
    """`F` on the gauged source, with F^d multiplied by t(x_1)...t(x_d); the
    target keeps its basis."""
    t = _signs(F.source.kernel_ops(), tokens)

    def components(keys):
        sign = 1
        for key in keys:
            sign *= t(key)
        return tuple((y, sign * c) for y, c in F.components(keys))

    return dataclasses.replace(F, source=gauged(F.source, tokens), components=components)
