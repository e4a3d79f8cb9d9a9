"""Structural classification: Riesz decomposition, interpolation, lattice type, ideals."""

from __future__ import annotations

from .core import FiniteEffectAlgebra, GuardExceeded, decompose


def refine_quadruple(E: FiniteEffectAlgebra, x1: int, x2: int, y1: int):
    """A 2x2 refinement of x1 + x2 = y1 + y2, or None; y2 itself is not needed.

    A cell c11 <= x1, y1 with y1 - c11 <= x2 closes the square by subtraction
    (c12 + c22 = y2 by associativity and cancellation).  Any such c11 is below
    m = x1 ^ y1 and y1 - m <= y1 - c11 <= x2, subtraction being antitone in
    what is subtracted: m alone decides if it exists, else every c11 is tried.
    """
    sub = E.order.sub
    m = E.order.meet[x1][y1]
    for c11 in range(E.n) if m is None else (m,):
        c12, c21 = sub[x1][c11], sub[y1][c11]
        if c12 is not None and c21 is not None and sub[x2][c21] is not None:
            return (c11, c12, c21, sub[x2][c21])
    return None


def check_rdp(E: FiniteEffectAlgebra):
    """Riesz decomposition as (holds, witness).  A finite E has RDP exactly when
    it is a product of chains (Dvurecenskij & Pulmannova, 2000): when its tree,
    ``E.verdict(core.decompose)``, has no sum node and its leaves are chains.
    Else the refinement scan decides.  Per-map code reads this through ``E.verdict``.
    """
    if all(node.kind in ("product", "chain") for node in E.verdict(decompose).walk()):
        return True, None
    return _refinement_scan(E)


def _refinement_scan(E: FiniteEffectAlgebra):
    """RDP by 2x2 refinement of equal sums, as (holds, witness).

    The witness is the first unrefinable quadruple (x1, x2, y1, y2), pairs in
    triple order, else None.  The meet test of ``refine_quadruple`` is inlined;
    that function runs only when x1 ^ y1 does not exist.  Only pairs p < q of
    a sum are walked: a quadruple refines iff its transpose (y1, y2, x1, x2)
    does, and p = q refines by c11 = x1, so the first failure has p < q.  A
    pair (0, k) is left out: it refines against any y1 + y2 = k by c11 = 0,
    c21 = y1, whichever side it is on.  Each sum keeps its place in the walk,
    so the witness is the one the full walk finds.
    """
    sub, meet = E.order.sub, E.order.meet
    by_sum: dict[int, list[tuple[int, int]]] = {}
    for i, j, k in E.triples:
        pairs = by_sum.setdefault(k, [])
        if i:
            pairs.append((i, j))
    for pairs in by_sum.values():
        for a, (x1, x2) in enumerate(pairs):
            meet_x1 = meet[x1]
            for y1, y2 in pairs[a + 1:]:
                m = meet_x1[y1]
                if (sub[x2][sub[y1][m]] is None if m is not None
                        else refine_quadruple(E, x1, x2, y1) is None):
                    return False, (x1, x2, y1, y2)
    return True, None


def verify_rdp_witness(E: FiniteEffectAlgebra, witness: tuple) -> bool:
    """One-shot confirmation that a reported quadruple really has no refinement."""
    x1, x2, y1, y2 = witness
    s = E.table[x1][x2]
    if s is None or E.table[y1][y2] != s:
        return False
    return refine_quadruple(E, x1, x2, y1) is None


def check_interpolation(E: FiniteEffectAlgebra):
    """Finite interpolation: x1, x2 <= y1, y2 admits a z between.

    On a finite poset this is the full content of the countable version.
    Returns (holds, witness quadruple or None), the witness being the first
    failure with x1 <= x2 and y1 <= y2 as indices, in index order.

    Interpolation holds exactly when E is a lattice.  If x1 v x2 exists it lies
    between.  If not, the common upper bounds of x1 and x2 (1 among them) have
    no least element; were every two of them above a third, this finite set
    would be directed downward and have one.  So the first failing pair is the
    first one without a join, read through the meet as x1' ^ x2', and only its
    upper bounds, ``bounds``, are scanned for the witness on down-sets, and
    only when ``classify_lattice`` finds no lattice.
    """
    if E.verdict(classify_lattice) != "neither":
        return True, None
    n, c, down, meet = E.n, E.complements, E.order.down, E.order.meet
    for x1 in range(n):
        row = meet[c[x1]]
        for x2 in range(x1, n):
            if row[c[x2]] is None:
                ys = [y for y in range(n) if down[y] >> x1 & down[y] >> x2 & 1]
                bounds = sum(1 << y for y in ys)
                return False, next((x1, x2, y1, y2) for i, y1 in enumerate(ys)
                                   for y2 in ys[i:] if not down[y1] & down[y2] & bounds)
    return True, None


def classify_lattice(E: FiniteEffectAlgebra) -> str:
    """"both" for a chain, "lattice" for any other lattice, else "neither".

    With a top, all meets give all joins, so E is a lattice iff every meet
    exists.  The names count a chain as both a lattice and an antilattice, in
    which no incomparable pair has a meet.  No other finite algebra is an
    antilattice: the common lower bounds of an incomparable pair without a
    meet have two maximal elements, an incomparable pair with strictly fewer
    common lower bounds, and this descent ends at a pair with a meet.  The
    class depends on E alone; per-map code reads it through ``E.verdict``.  It
    is read from E's tree ``E.verdict(decompose)``: E is a chain when the tree
    is one "chain" leaf; a product is a lattice iff its factors are, a
    horizontal sum iff its blocks are, as elements of two blocks have only 0
    below and 1 above them in common, and a chain is one.  So meets are read
    only on "part" leaves, over their members; a leaf is closed downward
    below its unit, so its meets are E's.
    """
    tree = E.verdict(decompose)
    if tree.kind == "chain":
        return "both"
    meet, parts = E.order.meet, (node.members for node in tree.walk() if node.kind == "part")
    lattice = all(None not in map(meet[x].__getitem__, m) for m in parts for x in m)
    return "lattice" if lattice else "neither"


def enumerate_ideals(E: FiniteEffectAlgebra, guard_elements: int = 16):
    """All ideals (downward closed, closed under defined sums), with flags.

    Each entry is (ideal tuple, {"riesz": bool}).
    """
    n = E.n
    if n > guard_elements:
        raise GuardExceeded(f"ideal enumeration guarded at {guard_elements} elements")
    down = E.order.down
    ideals = []
    for mask in range(1, 1 << n):
        if not mask & 1:  # 0 belongs to every ideal
            continue
        members = [a for a in range(n) if mask >> a & 1]
        if any(down[a] & ~mask for a in members):
            continue
        sums = (E.table[a][b] for a in members for b in members)
        if all(k is None or mask >> k & 1 for k in sums):
            ideals.append((tuple(members), {"riesz": is_riesz_ideal(E, members)}))
    return ideals


def is_riesz_ideal(E: FiniteEffectAlgebra, ideal) -> bool:
    """x in I with x <= a + b must split as x = a1 + b1, a1, b1 in I, a1 <= a, b1 <= b."""
    sub = E.order.sub
    iset = set(ideal)
    for x in ideal:
        for a, b, top in E.triples:
            if sub[top][x] is None:
                continue
            for a1 in ideal:
                b1 = sub[x][a1]                  # x - a1; None, no member, unless a1 <= x
                if b1 in iset and sub[a][a1] is not None and sub[b][b1] is not None:
                    break
            else:
                return False
    return True

