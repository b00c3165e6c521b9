"""Table-backed categories from Generators and Chains.  The program reads
its tables from JSON into keys (`ainfty.table_category`); the tests give
theirs as Chains, through the same validation."""

from floerloops.ainfty import table_category


def category_from_tables(name, objects, bases, mu_tables, is_dg=False):
    """The table category of hom bases of Generators per object pair and of
    mu tables per arity, input gids in composition order to a Chain."""
    return table_category(
        name, objects,
        {pair: [(g.gid, g.degree) for g in basis] for pair, basis in bases.items()},
        [(d, gids, [(g.gid, g.degree, c) for g, c in chain.items()])
         for d, table in mu_tables.items() for gids, chain in table.items()],
        is_dg,
    )[0]
