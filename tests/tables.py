"""Test-side views of a validated algebra's sum table, for the oracles, and
a hand-built table that no catalog builder produces."""

from effectalg.core import validate_axioms


def sums_dict(E) -> dict:
    """The partial sum as a dict over ordered pairs, (a, b) -> a + b, rebuilt
    from the dense table so oracles can keep their dict lookups."""
    return {(a, b): k for a, row in enumerate(E.table) for b, k in enumerate(row)
            if k is not None}


def wright_triangle():
    """Three Boolean blocks with atoms {0, 1, 2}, {2, 3, 4} and {4, 5, 0}, pasted
    in a loop: an orthoalgebra that is not a lattice.  Index 1 + x is atom x,
    7 + x its complement x', and 13 the unit.  The coatoms 0' = 1 + 2 and
    2' = 0 + 1 have the lower bounds 1 and 4 but no meet, yet 0' + 0 = 2' + 2
    refines, with atoms c11 = 1, c12 = 2, c21 = 0 and c22 the zero."""
    blocks = ((0, 1, 2), (2, 3, 4), (4, 5, 0))

    def element(block, mask):
        part = [x for i, x in enumerate(block) if mask >> i & 1]
        if len(part) == 1:
            return 1 + part[0]
        if len(part) == 2:
            return 7 + next(x for x in block if x not in part)
        return 0 if not part else 13

    triples = {(element(b, s), element(b, t), element(b, s | t))
               for b in blocks for s in range(8) for t in range(8) if not s & t}
    return validate_axioms(14, sorted(triples))
