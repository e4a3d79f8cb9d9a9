"""Test-side views of a validated algebra's sum table, for the oracles, and
hand-built tables that no catalog builder produces: Boolean blocks pasted at
shared atoms."""

from effectalg.core import validate_axioms


def sums_dict(E) -> dict:
    """The partial sum as a dict over ordered pairs, (a, b) -> a + b, rebuilt
    from the dense table so oracles can keep their dict lookups."""
    return {(a, b): k for a, row in enumerate(E.table) for b, k in enumerate(row)
            if k is not None}


def leq_table(E) -> tuple:
    """The order as an n x n table, ``leq_table(E)[a][b] == E.leq(a, b)``, for
    oracles that read it pair by pair."""
    return tuple(tuple(E.leq(a, b) for b in range(E.n)) for a in range(E.n))


def paste_boolean_cubes(blocks, atoms):
    """Boolean(3) blocks over atoms 0..atoms-1, given as atom triples, pasted at
    their shared atoms: the Greechie diagram with these blocks.  Index 1 + x is
    atom x, 1 + atoms + x its complement x', and 2 * atoms + 1 the unit; a
    shared atom has one complement, the sum of either block's other two."""
    def element(block, mask):
        part = [x for i, x in enumerate(block) if mask >> i & 1]
        if len(part) == 1:
            return 1 + part[0]
        if len(part) == 2:
            return 1 + atoms + next(x for x in block if x not in part)
        return 0 if not part else 2 * atoms + 1

    triples = {(element(b, s), element(b, t), element(b, s | t))
               for b in blocks for s in range(8) for t in range(8) if not s & t}
    return validate_axioms(2 * atoms + 2, sorted(triples))


def wright_triangle():
    """Three Boolean blocks with atoms {0, 1, 2}, {2, 3, 4} and {4, 5, 0}, pasted
    in a loop: an orthoalgebra that is not a lattice.  Index 1 + x is atom x,
    7 + x its complement x', and 13 the unit.  The coatoms 0' = 1 + 2 and
    2' = 0 + 1 have the lower bounds 1 and 4 but no meet, yet 0' + 0 = 2' + 2
    refines, with atoms c11 = 1, c12 = 2, c21 = 0 and c22 the zero."""
    return paste_boolean_cubes(((0, 1, 2), (2, 3, 4), (4, 5, 0)), 6)


def greechie_chain(k):
    """k Boolean blocks in a row, block b with atoms {2b, 2b + 1, 2b + 2}, so that
    consecutive blocks share one atom: 4k + 4 elements.  From k = 3 on it has no
    horizontal summand and no central element.  A state is a weight on the
    2k + 1 atoms summing to 1 on each block, so the free dimension is k + 1."""
    return paste_boolean_cubes([(2 * b, 2 * b + 1, 2 * b + 2) for b in range(k)], 2 * k + 1)
