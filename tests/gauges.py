"""Orientation-token gauges as wrappers over a category or a functor.

A gauge t assigns a sign to each basis generator (by gid; absent gids get
+1) and replaces every basis element x by t(x) x.  It rescales the
structure maps, mu(x_1, ..., x_d) = sum c_y y becoming
t(x_1)...t(x_d) sum c_y t(y) y, and F^d by t(x_1)...t(x_d), and every
checker must give the same verdict under it.  The program has no token
input: a sign change of a basis element is a coefficient, and these
wrappers apply it the way `cli.MUTATIONS` wraps a report row's input.

`winding_parity` and `winding_parity_functor` are not gauges: they multiply
each mu output y by (-1)^(winding of y) and each F^1(x) by (-1)^(winding of
x).  A sign read from the output winding alone breaks the d = 3 relation
(see `cylinder.TWISTS`), so the checkers must fail under them.
"""

import dataclasses

from floerloops.gradedalg import sign_pow


def _signs(ops, sign_of):
    """A sign on kernel keys from `sign_of` on gids, decoded once per key."""
    memo = {}

    def t(key):
        sign = memo.get(key)
        if sign is None:
            sign = memo[key] = sign_of(ops.decode(key).gid)
        return sign

    return t


def _tokens(tokens):
    return lambda gid: tokens.get(gid, 1)


def _winding_parity(gid):
    return sign_pow(gid[3])


def gauged(cat, tokens):
    """`cat` with its keyed mu multiplied by t(x_1)...t(x_d) t(y)."""
    ops = cat.kernel_ops()
    t = _signs(ops, _tokens(tokens))

    def mu(keys):
        sign = 1
        for key in keys:
            sign *= t(key)
        return tuple((y, sign * c * t(y)) for y, c in ops.mu(keys))

    return dataclasses.replace(cat, mu_fn=None, keyed=dataclasses.replace(ops, mu=mu))


def gauged_functor(F, tokens):
    """`F` on the gauged source, with F^d multiplied by t(x_1)...t(x_d); the
    target keeps its basis."""
    t = _signs(F.source.kernel_ops(), _tokens(tokens))

    def components(keys):
        sign = 1
        for key in keys:
            sign *= t(key)
        return tuple((y, sign * c) for y, c in F.components(keys))

    return dataclasses.replace(F, source=gauged(F.source, tokens), components=components)


def winding_parity(cat):
    """`cat` with each keyed mu output y multiplied by (-1)^(winding of y)."""
    ops = cat.kernel_ops()
    t = _signs(ops, _winding_parity)

    def mu(keys):
        return tuple((y, c * t(y)) for y, c in ops.mu(keys))

    return dataclasses.replace(cat, mu_fn=None, keyed=dataclasses.replace(ops, mu=mu))


def winding_parity_functor(F):
    """`F` on the `winding_parity` source, with F^1(x) multiplied by
    (-1)^(winding of x)."""
    t = _signs(F.source.kernel_ops(), _winding_parity)

    def components(keys):
        out = F.components(keys)
        if len(keys) != 1:
            return out
        sign = t(keys[0])
        return tuple((y, sign * c) for y, c in out)

    return dataclasses.replace(F, source=winding_parity(F.source), components=components)
