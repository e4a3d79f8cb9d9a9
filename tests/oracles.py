"""Test-side second routes: the pull-back along a vertex map, whole-row partial
associativity, dense elimination, active-set vertex enumeration, the splitting
formulation of refinement, the all-pairs refinement scan, integer matrix
products, the up-set/down-set order tables, the all-pairs interpolation scan,
the join table built entry by entry, the lattice class read from both join
and meet tables, the endomorphism test on every sum triple, the all-pairs
strong-operator test, the meet-preservation test, the induced subalgebra on a
map's image, the scans of the operator laws that hold by definition and the
check of every law report against them, the all-pairs ordering report, powers
and the potency by repeated composition, the brute-force central-element
test, the state polytope of a whole algebra run as one part, and the catalog's
Boolean algebras, products, po-group intervals and horizontal sums tabulated
by a scan over every pair of elements."""

from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd
from operator import add, le, mul

from effectalg.core import (GuardExceeded, preserves_existing_joins, raw_triples,
                            validate_axioms)
from effectalg.operators import (HOLDS, NOT_APPLICABLE, compose, enumerate_endomorphisms,
                                 operator_law_report)
from effectalg.states import OrderingReport, _part_polytope
from effectalg.structure import check_rdp, classify_lattice
from tables import leq_table


def induced_state_self_map(g, w):
    """g' on the states of the affine functions on a simplex: the state at
    weights ``w``, read on each vertex indicator precomposed with the vertex
    map ``g``.  The pull-back route around the square p o g = g' o p."""
    vertices = range(len(g.image))
    indicators = ([int(x == v) for x in vertices] for v in vertices)
    return tuple(sum((f[g.image[x]] * w[x] for x in vertices), start=Fraction(0))
                 for f in indicators)


def dense_associativity_violation(n, triples):
    """Partial associativity (ii) by whole rows, n^3 work: for each pair (a, b)
    in order, the row of a + b against a + (b + c) for every c at once.  Takes a
    raw table that passes the table check and (i).  Returns (witness, message)
    for the lexicographically first failing triple, or None; the reference for
    the (ii) step of ``core.validate_axioms``.
    """
    rows = [[None] * n for _ in range(n)]
    for i, j, k in triples:
        rows[i][j] = k
    undefined = [None] * n
    for a, row_a in enumerate(rows):
        for b, ab in enumerate(row_a):
            left = undefined if ab is None else rows[ab]
            right = [None if bc is None else row_a[bc] for bc in rows[b]]
            if left != right:
                c = next(c for c in range(n) if left[c] != right[c])
                if (left[c] is None) != (right[c] is None):
                    return (a, b, c), "one association defined, the other not"
                return (a, b, c), "associated sums differ"
    return None


def rdp_splitting(E):
    """Refinement as splitting: every x <= y1 + y2 is x1 + (x - x1) with
    x1 <= y1 and x - x1 <= y2.  Returns (holds, (x, y1, y2) or None); the
    reference formulation for ``structure.check_rdp``.
    """
    leq = leq_table(E)
    sub = E.order.sub
    for y1, y2, top in E.triples:
        for x in range(E.n):
            if not leq[x][top]:
                continue
            for x1 in range(E.n):
                if leq[x1][x] and leq[x1][y1] and leq[sub[x][x1]][y2]:
                    break
            else:
                return False, (x, y1, y2)
    return True, None


def full_scan_rdp(E):
    """Refinement by every ordered pair of pairs of each sum and every c11:
    (x1, x2, y1, y2) refines iff some c11 <= x1, y1 has y1 - c11 <= x2.  Sums
    in order of first appearance in ``E.triples``, pairs in triple order.
    Returns (holds, first unrefinable quadruple or None); the reference for the
    witness of ``structure.check_rdp``.
    """
    leq = leq_table(E)
    sub = E.order.sub
    by_sum = {}
    for i, j, k in E.triples:
        by_sum.setdefault(k, []).append((i, j))
    for pairs in by_sum.values():
        for x1, x2 in pairs:
            for y1, y2 in pairs:
                if not any(leq[c][x1] and leq[c][y1] and leq[sub[y1][c]][x2]
                           for c in range(E.n)):
                    return False, (x1, x2, y1, y2)
    return True, None


def rref(rows):
    """Dense reduced row echelon form of a copy of ``rows`` over Fraction;
    returns (rref, pivot columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def dense_affine_parametrization(eq_rows, eq_rhs, nvars):
    """``(c, free, basis)`` of ``A x = b`` read off the dense RREF of ``[A | b]``,
    or None when inconsistent: the oracle for ``linalg.affine_parametrization``."""
    aug = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(eq_rows, eq_rhs)]
    red, pivots = rref(aug)
    if nvars in pivots:
        return None
    free = [j for j in range(nvars) if j not in pivots]
    c = [Fraction(0)] * nvars
    for r, p in enumerate(pivots):
        c[p] = red[r][nvars]
    basis = []
    for f in free:
        col = [Fraction(0)] * nvars
        col[f] = Fraction(1)
        for r, p in enumerate(pivots):
            col[p] = -red[r][f]
        basis.append(tuple(col))
    return tuple(c), free, basis


def fraction_parametrization(result):
    """The integer result ``(c, free, columns, den)`` of
    ``linalg.affine_parametrization`` read as Fractions, in the
    ``(c, free, basis)`` form of ``dense_affine_parametrization``; None stays None."""
    if result is None:
        return None
    c, free, columns, den = result
    basis = [tuple(Fraction(col[j], den) for col in columns) for j in range(len(free))]
    return tuple(Fraction(x, den) for x in c), free, basis


def _bareiss_solve(subset, dim: int):
    """Fraction-free solution ``(num, den)`` of a dim x dim integer system, with
    ``den > 0`` the absolute determinant; None when singular."""
    m = [[*coeffs, rhs] for coeffs, rhs in subset]
    prev = 1
    for k in range(dim):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, dim) if m[r][k]), None)
            if swap is None:
                return None
            m[k], m[swap] = m[swap], m[k]
        pk = m[k]
        akk = pk[k]
        for r in range(k + 1, dim):
            row = m[r]
            ark = row[k]
            for c in range(k + 1, dim + 1):
                row[c] = (akk * row[c] - ark * pk[c]) // prev
            row[k] = 0
        prev = akk
    det = m[dim - 1][dim - 1]
    # Back substitution scaled by det: num[r] = det * x[r] is an integer (Cramer).
    num = [0] * dim
    for r in range(dim - 1, -1, -1):
        row = m[r]
        acc = row[dim] * det - sum(row[c] * num[c] for c in range(r + 1, dim))
        num[r] = acc // row[r]
    if det < 0:
        return [-x for x in num], -det
    return num, det


def active_set_vertices(rows, dim: int, guard_systems: int = 2_000_000):
    """Vertices of the integer system ``coeffs . t >= rhs`` by brute force over
    all d-subsets of rows, keeping the feasible solutions whose active set has
    full rank: the oracle for ``polytope.dd_vertices``, returning the same
    sorted primitive integer rays ``(t, h)``.

    Each d x d system is solved fraction-free (Bareiss 1968): the solution is
    ``num / den`` with integer ``num`` and ``den > 0``, and a row is satisfied
    when ``coeffs . num >= rhs * den``.
    """
    scaled = set()
    for coeffs, rhs in rows:
        vec = (*coeffs, rhs)
        g = gcd(*vec) or 1
        scaled.add(tuple(x // g for x in vec))
    int_rows = []
    for *coeffs, rhs in sorted(scaled):
        if any(coeffs):
            int_rows.append((tuple(coeffs), rhs))
        elif rhs > 0:
            return []
    if dim == 0:
        return [(1,)]
    total = comb(len(int_rows), dim)
    if total > guard_systems:
        raise GuardExceeded(
            f"active-set oracle would solve {total} systems (guard {guard_systems})")
    verts = set()
    for subset in combinations(int_rows, dim):
        solved = _bareiss_solve(subset, dim)
        if solved is None:
            continue
        num, den = solved
        if all(sum(map(mul, coeffs, num)) >= rhs * den for coeffs, rhs in int_rows):
            g = gcd(den, *num)
            verts.add(tuple(x // g for x in (*num, den)))
    return sorted(verts)


def mat_mul(a, b):
    """The product of two integer matrices given as row sequences, as row tuples."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def updown_order(E):
    """``(down, sub, join, meet)`` of a validated algebra as dense tuples: the
    order and subtraction from the triples, the down-set bitmasks (bit a of
    ``down[b]`` iff a <= b), then x = a v b iff the up-set of x is exactly the
    common up-set of a and b, and meets dually with down-sets.
    The n^2-scan reference for ``core.derive_order`` and ``OrderData.join``.
    """
    n = E.n
    leq = [[False] * n for _ in range(n)]
    sub = [[None] * n for _ in range(n)]
    for a, c, b in E.triples:
        leq[a][b] = leq[c][b] = True
        sub[b][a] = c
        sub[b][c] = a
    up = [sum(1 << b for b in range(n) if leq[a][b]) for a in range(n)]
    down = [sum(1 << b for b in range(n) if leq[b][a]) for a in range(n)]
    by_up = {mask: a for a, mask in enumerate(up)}
    by_down = {mask: a for a, mask in enumerate(down)}
    join = [[by_up.get(up[a] & up[b]) for b in range(n)] for a in range(n)]
    meet = [[by_down.get(down[a] & down[b]) for b in range(n)] for a in range(n)]
    return (tuple(down), *(tuple(tuple(r) for r in t) for t in (sub, join, meet)))


def entrywise_join(order):
    """a v b = (a' ^ b')' entry by entry, a Python test per entry: the reference
    for ``OrderData.join``, which maps whole rows."""
    c = order.complements
    return tuple(tuple(None if m is None else c[m] for m in map(row.__getitem__, c))
                 for row in map(order.meet.__getitem__, c))


def scan_interpolation(E):
    """Interpolation by every pair x1 <= x2 (indices) and every pair y1 <= y2 of
    their common upper bounds, asking for a z with x1, x2 <= z <= y1, y2.
    Returns (holds, first failing (x1, x2, y1, y2) or None); the O(n^4)
    reference for ``structure.check_interpolation``.
    """
    n = E.n
    leq = leq_table(E)
    up = [sum(1 << b for b in range(n) if leq[a][b]) for a in range(n)]
    down = [sum(1 << b for b in range(n) if leq[b][a]) for a in range(n)]
    for x1 in range(n):
        for x2 in range(x1, n):
            cover = up[x1] & up[x2]
            ys = [y for y in range(n) if cover >> y & 1]
            for i, y1 in enumerate(ys):
                for y2 in ys[i:]:
                    if not cover & down[y1] & down[y2]:
                        return False, (x1, x2, y1, y2)
    return True, None


def dense_lattice_class(E):
    """"both" (a lattice and an antilattice, which is a chain), "lattice" or
    "neither" from the join and meet tables of ``updown_order``, every pair
    a < b asked for both: the reference for ``structure.classify_lattice``.
    A proper antilattice, which no finite algebra is, fails an assertion."""
    down, _sub, join, meet = updown_order(E)
    is_lattice = is_anti = True
    for a in range(E.n):
        for b in range(a + 1, E.n):
            bounds = (join[a][b] is not None, meet[a][b] is not None)
            is_lattice = is_lattice and all(bounds)
            comparable = down[b] >> a & 1 or down[a] >> b & 1
            is_anti = is_anti and (comparable or not any(bounds))
    assert is_lattice or not is_anti, "a finite antilattice that is not a chain"
    return "neither" if not is_lattice else "both" if is_anti else "lattice"


def full_triple_endomorphism(E, mapping):
    """A self-map of E's indices that keeps 1 and every sum triple, the zero
    sums 0 + a = a included: the reference for ``operators.is_endomorphism``,
    which reads only the triples with a nonzero first entry."""
    m = tuple(mapping)
    if len(m) != E.n or any(not 0 <= x < E.n for x in m) or m[E.n - 1] != E.n - 1:
        return False
    return all(E.table[m[i]][m[j]] == m[k] for i, j, k in E.triples)


def all_pairs_strong_operator(E, mapping):
    """tau(tau(a) v tau(b)) = tau(a) v tau(b) whenever that join exists, tested
    at every index pair a <= b: the n^2/2 reference for
    ``operators.is_strong_operator``, which scans pairs of image elements."""
    join = E.order.join
    for a in range(E.n):
        ta = mapping[a]
        for b in range(a, E.n):
            j = join[ta][mapping[b]]
            if j is not None and mapping[j] != j:
                return False
    return True


def preserves_existing_meets(E, mapping, target=None):
    """tau(a ^ b) = tau(a) ^ tau(b) in ``target`` (E by default) whenever a ^ b
    exists in E, read from the meet tables: the reference for
    ``core.preserves_existing_joins``, which reads the join tables and stands
    in for meets because the maps it is asked about keep complements."""
    meet = E.order.meet
    image_meet = (E if target is None else target).order.meet
    for a in range(E.n):
        for b in range(a, E.n):
            m = meet[a][b]
            if m is None:
                continue
            if image_meet[mapping[a]][mapping[b]] != mapping[m]:
                return False
    return True


def subalgebra_table(E, members):
    """The induced algebra on a sum-closed, complement-closed subset containing 0, 1."""
    mem = sorted(set(members))
    if mem[0] != 0 or mem[-1] != E.n - 1:
        raise ValueError("a subalgebra must contain 0 and 1 at the extremes")
    pos = {a: i for i, a in enumerate(mem)}
    triples = []
    for i, j, k in raw_triples(E):
        if i in pos and j in pos:
            if k not in pos:
                raise ValueError("subset is not closed under defined sums")
            triples.append((pos[i], pos[j], pos[k]))
    return validate_axioms(len(mem), triples, [E.labels[a] for a in mem])


def image_fixed_point_scan(E, m):
    """(holds, witness): the image of an idempotent is its fixed-point set."""
    n = E.n
    image = sorted({m[a] for a in range(n)})
    fixed = sorted(a for a in range(n) if m[a] == a)
    return image == fixed, None if image == fixed else (image, fixed)


def image_subalgebra_scan(E, m):
    """(holds, witness): the image is closed under complements and defined sums."""
    image = sorted({m[a] for a in range(E.n)})
    sub_ok = True
    wit = None
    for a in image:
        if E.complements[a] not in image:
            sub_ok, wit = False, (a,)
            break
        for b in image:
            k = E.table[a][b]
            if k is not None and k not in image:
                sub_ok, wit = False, (a, b, k)
                break
        if not sub_ok:
            break
    return sub_ok, wit


def strong_joins_scan(E, m):
    """(holds, witness): existing joins of image elements lie in the image."""
    n = E.n
    join = E.order.join
    image = sorted({m[a] for a in range(n)})
    holds = True
    wit = None
    for a in range(n):
        for b in range(a, n):
            j = join[m[a]][m[b]]
            if j is not None and j not in image:
                holds, wit = False, (a, b, j)
    return holds, wit


def strong_meets_scan(E, m):
    """(holds, witness): existing meets of image elements are fixed points."""
    n = E.n
    meet = E.order.meet
    holds = True
    wit = None
    for a in range(n):
        for b in range(a, n):
            mt = meet[m[a]][m[b]]
            if mt is not None and m[mt] != mt:
                holds, wit = False, (a, b, mt)
    return holds, wit


def image_rdp_scan(E, m):
    """(holds, witness): the algebra induced on the image has RDP."""
    return check_rdp(subalgebra_table(E, m))


def strictly_monotone_scan(E, m):
    """(holds, witness): a < b gives tau(a) < tau(b)."""
    leq = leq_table(E)
    for a in range(E.n):
        for b in range(E.n):
            if a != b and leq[a][b] and not (leq[m[a]][m[b]] and m[a] != m[b]):
                return False, (a, b)
    return True, None


def fixed_or_incomparable_scan(E, m):
    """(holds, witness): every a is fixed or incomparable with tau(a)."""
    leq = leq_table(E)
    for a in range(E.n):
        if m[a] != a and (leq[a][m[a]] or leq[m[a]][a]):
            return False, (a,)
    return True, None


LAW_KEYS = ("image_is_fixed_point_set", "image_is_subalgebra",
            "strong_joins_land_in_image", "strong_fixes_image_meets",
            "image_inherits_rdp", "faithful_strictly_monotone",
            "faithful_fixed_or_incomparable", "faithful_implies_strong",
            "linear_faithful_identity", "antilattice_preserves_joins_meets",
            "all_meets_preserved_info")


# The scan of each law, as (holds, witness), run only where the law applies.
LAW_SCANS = {
    "image_is_fixed_point_set": image_fixed_point_scan,
    "image_is_subalgebra": image_subalgebra_scan,
    "strong_joins_land_in_image": strong_joins_scan,
    "strong_fixes_image_meets": strong_meets_scan,
    "image_inherits_rdp": image_rdp_scan,
    "faithful_strictly_monotone": strictly_monotone_scan,
    "faithful_fixed_or_incomparable": fixed_or_incomparable_scan,
    "faithful_implies_strong": lambda E, m: (all_pairs_strong_operator(E, m), None),
    "linear_faithful_identity": lambda E, m: (m == tuple(range(E.n)), None),
    "antilattice_preserves_joins_meets": lambda E, m: (
        preserves_existing_joins(E, E, m) and preserves_existing_meets(E, m), None),
}


def law_report_counts(algebras):
    """Check every law report on the idempotent endomorphisms of ``algebras``
    against the scans and count what applied.  Each of the ten laws that the
    report states without a scan holds by its scan wherever it applies, and
    the report gives it as HOLDS there and NOT_APPLICABLE elsewhere.
    Applicability is decided here by the oracles: the all-pairs strong test,
    the kernel, RDP by splitting and the dense lattice class, which the
    algebra's cached class must equal.  Every report has the same eleven keys,
    in the same order, which the benchmark's operators digest also pins."""
    counts = dict.fromkeys(("algebras", "maps", "strong", "faithful_moved",
                            "rdp_moved", "faithful_on_chains"), 0)
    for E in algebras:
        counts["algebras"] += 1
        rdp = rdp_splitting(E)[0]
        lattice = dense_lattice_class(E)
        ident = tuple(range(E.n))
        for m in enumerate_endomorphisms(E):
            if compose(m, m) != m:
                continue
            report = operator_law_report(E, m)
            assert tuple(report) == LAW_KEYS, tuple(report)
            strong = all_pairs_strong_operator(E, m)
            faithful = [a for a in ident if m[a] == 0] == [0]
            applies = dict.fromkeys(LAW_SCANS, True)
            applies.update({
                "strong_joins_land_in_image": strong,
                "strong_fixes_image_meets": strong,
                "image_inherits_rdp": rdp,
                "faithful_strictly_monotone": faithful,
                "faithful_fixed_or_incomparable": faithful,
                "faithful_implies_strong": faithful,
                "linear_faithful_identity": faithful and lattice == "both",
                "antilattice_preserves_joins_meets": lattice == "both",
            })
            for law, scan in LAW_SCANS.items():
                if applies[law]:
                    assert scan(E, m) == (True, None), (E.labels, m, law)
                    assert report[law] is HOLDS, (E.labels, m, law)
                else:
                    assert report[law] is NOT_APPLICABLE, (E.labels, m, law)
            counts["maps"] += 1
            counts["strong"] += strong
            counts["faithful_moved"] += faithful and m != ident
            counts["rdp_moved"] += rdp and m != ident
            counts["faithful_on_chains"] += applies["linear_faithful_identity"]
        assert E.verdict(classify_lattice) == lattice, E.labels
        assert E.verdict(check_rdp)[0] == rdp, E.labels
    return counts


def all_pairs_order_report(values, leq):
    """Order determination and separation by comparing every ordered pair of
    value vectors: ``values[a]`` lists element a's value at every state and
    ``leq(a, b)`` is the order on element indices.  Raises at the first pair in
    row-major order that the algebra orders and some state does not.  The
    reference for the bitmask report behind ``states.is_order_determining`` and
    ``states.sampled_order_report``."""
    od_w = None
    sep_w = None
    for a, va in enumerate(values):
        for b, vb in enumerate(values):
            statewise = all(x <= y for x, y in zip(va, vb))
            actual = leq(a, b)
            if statewise and not actual and od_w is None:
                od_w = (a, b)
            if actual and not statewise:
                raise AssertionError(f"states fail monotonicity at ({a}, {b})")
            if a < b and sep_w is None and va == vb:
                sep_w = (a, b)
    return OrderingReport(order_determining=od_w is None, separating=sep_w is None,
                          od_witness=od_w, sep_witness=sep_w)


def power(mapping, e):
    """mapping composed with itself e times (the identity for e = 0): the
    composition reference for ``operators.is_n_potent`` and
    ``operators.minimal_potency``."""
    m = tuple(mapping)
    out = tuple(range(len(m)))
    for _ in range(e):
        out = compose(m, out)
    return out


def composition_potency(mapping):
    """Least n >= 2 with mapping^n == mapping by composing until a power
    repeats, or None if the mapping never returns."""
    m = tuple(mapping)
    seen = {}
    cur = m
    k = 1
    while cur not in seen:
        seen[cur] = k
        cur = compose(m, cur)
        k += 1
        if cur == m:
            return k
    return None


def brute_force_central(E, c):
    """Is (a, b) |-> a + b a sum-preserving bijection [0, c] x [0, c'] -> E?
    Sums in the factors are E's sums that stay below c and c'; the map must
    make a pair of pairs summable exactly when their images are, and send the
    sum to the sum."""
    cc = E.complements[c]
    below = [[a for a in range(E.n) if E.leq(a, top)] for top in (c, cc)]
    phi = {(a, b): E.table[a][b] for a in below[0] for b in below[1]}
    if None in phi.values() or sorted(phi.values()) != list(range(E.n)):
        return False
    for (a1, b1), x in phi.items():
        for (a2, b2), y in phi.items():
            sa, sb = E.table[a1][a2], E.table[b1][b2]
            summable = (sa is not None and E.leq(sa, c)
                        and sb is not None and E.leq(sb, cc))
            if summable != (E.table[x][y] is not None):
                return False
            if summable and phi[(sa, sb)] != E.table[x][y]:
                return False
    return True


def whole_algebra_states(E):
    """Elimination and double description on all of E as one part, with no
    split into horizontal summands or central factors."""
    return _part_polytope(E)


def pair_scan_boolean(k):
    """2^k by testing every pair of bitmasks for disjointness: the reference
    for ``catalog.build_boolean``."""
    n = 1 << k
    triples = [(a, b, a | b) for a in range(n) for b in range(n) if not a & b]
    labels = ["{" + ",".join(str(i + 1) for i in range(k) if a >> i & 1) + "}"
              for a in range(n)]
    return validate_axioms(n, triples, labels,
                           meta={"construction": "boolean", "k": k})


def pair_scan_product(factors):
    """The product by summing every pair of tuples coordinate by coordinate:
    the reference for ``catalog.build_product``."""
    tuples = list(product(*[range(F.n) for F in factors]))
    index = {t: i for i, t in enumerate(tuples)}
    triples = []
    for a, ta in enumerate(tuples):
        for b, tb in enumerate(tuples):
            parts = tuple(F.table[x][y] for F, x, y in zip(factors, ta, tb))
            if None not in parts:
                triples.append((a, b, index[parts]))
    labels = ["(" + ",".join(F.labels[x] for F, x in zip(factors, t)) + ")"
              for t in tuples]
    return validate_axioms(len(tuples), triples, labels,
                           meta={"construction": "product", "tuples": tuples,
                                 "factor_sizes": tuple(F.n for F in factors)})


def pair_scan_interval(u):
    """[0, u] in Z^k under the product order, by adding every pair of lattice
    points and comparing the sum with u: the reference for
    ``pogroup.materialize``."""
    points = list(product(*[range(c + 1) for c in u]))
    index = {p: i for i, p in enumerate(points)}
    triples = []
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            s = tuple(map(add, p, q))
            if all(map(le, s, u)):
                triples.append((i, j, index[s]))
    labels = ["(" + ",".join(str(c) for c in p) + ")" for p in points]
    return validate_axioms(len(points), triples, labels,
                           meta={"construction": "interval", "unit": tuple(u),
                                 "coords": points})


def indexed_horizontal_sum(blocks):
    """The horizontal sum with each middle element found by its (block, index)
    pair in one list: the reference for ``catalog.horizontal_sum``."""
    owners = [(bi, x) for bi, B in enumerate(blocks) for x in range(1, B.n - 1)]
    n = len(owners) + 2

    def outer(bi, x):
        if x == 0:
            return 0
        if x == blocks[bi].n - 1:
            return n - 1
        return owners.index((bi, x)) + 1

    triples = {(0, a, a) for a in range(n)} | {(a, 0, a) for a in range(n)}
    for bi, B in enumerate(blocks):
        triples.update((outer(bi, x), outer(bi, y), outer(bi, z))
                       for x, y, z in raw_triples(B))
    labels = ["0"] + [f"b{bi}:{blocks[bi].labels[x]}" for bi, x in owners] + ["1"]
    return validate_axioms(n, sorted(triples), labels,
                           meta={"construction": "horizontal_sum",
                                 "blocks": tuple(B.n for B in blocks)})
