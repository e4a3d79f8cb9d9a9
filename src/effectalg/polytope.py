"""Exact vertex enumeration for rational polytopes inside the unit box.

Input is a system of halfspaces ``coeffs . t >= rhs`` over t in [0,1]^d (callers
must include the box rows; every feasible point must lie in the unit box).  Two
independent routes are provided:

* ``dd_vertices``  - incremental double description on the homogenization cone,
  seeded with the box cone over [0,1]^d;
* ``active_set_vertices`` - brute force over all d-subsets of rows, keeping the
  feasible solutions whose active set has full rank.

Both take and return Fractions but compute in integers: rows are scaled to
primitive integer vectors, and Fractions are formed only for the returned
vertices.  They return the same lexicographically sorted vertex list on
bounded inputs; the second is the reference oracle for the first, and the two
share no code.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm
from operator import mul

from .core import GuardExceeded


def _primitive_halfspaces(rows) -> list[tuple[int, ...]]:
    """Each row ``coeffs . t >= rhs`` as the primitive integer vector
    ``(coeffs, -rhs)``, deduplicated in first-seen order."""
    out = {}
    for coeffs, rhs in rows:
        vec = (*coeffs, -rhs)
        den = lcm(*(x.denominator for x in vec))
        ints = [x.numerator * (den // x.denominator) for x in vec]
        g = gcd(*ints) or 1
        out.setdefault(tuple(v // g for v in ints), None)
    return list(out)


def dd_vertices(rows, dim: int, guard_dim: int = 14):
    """Vertices via double description over the homogenization cone.

    Rays are primitive integer vectors ``(t, h)`` and satisfy row m as
    ``m . ray >= 0``; each ray's zero set is an int bitmask over the rows seen so
    far.  Following Fukuda & Prodon (1996), two rays are adjacent when no third
    ray is zero wherever both are; the test runs only when their zero sets share
    at least ``dim - 1`` rows, as ANDs of per-row bitmasks over the rays.  The
    ray that the pair spans on the new row's hyperplane has zero set
    ``common | bit(row)``: it is a positive combination of two rays that satisfy
    every earlier row, so it is zero exactly where both are.
    """
    hom_rows = []
    for vec in _primitive_halfspaces(rows):
        if any(vec[:-1]):
            hom_rows.append(vec)
        elif vec[-1] < 0:                      # 0 >= positive rhs
            return []
    if dim == 0:
        return [()]
    if dim > guard_dim:
        raise GuardExceeded(f"double description guarded at {guard_dim} free dimensions")

    # Global row list: the box cone rows first (row 2j is t_j >= 0, row 2j+1 is
    # h - t_j >= 0), then the input rows that are not box rows.
    box_rows = set()
    for j in range(dim):
        lo = [0] * (dim + 1)
        lo[j] = 1
        hi = [0] * (dim + 1)
        hi[j] = -1
        hi[dim] = 1
        box_rows.update((tuple(lo), tuple(hi)))
    new_rows = [r for r in hom_rows if r not in box_rows]

    rays = []
    zsets = []
    for bits in product((0, 1), repeat=dim):
        rays.append((*bits, 1))
        zsets.append(sum(1 << (2 * j + b) for j, b in enumerate(bits)))

    for offset, m in enumerate(new_rows):
        bit = 1 << (2 * dim + offset)
        support = [(c, a) for c, a in enumerate(m) if a]
        vals = [sum(a * ray[c] for c, a in support) for ray in rays]
        if all(v >= 0 for v in vals):
            zsets = [z | bit if v == 0 else z for z, v in zip(zsets, vals)]
            continue
        plus = [i for i, v in enumerate(vals) if v > 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        new_rays = [rays[i] for i in plus]
        new_zsets = [zsets[i] for i in plus]
        for i, v in enumerate(vals):
            if v == 0:
                new_rays.append(rays[i])
                new_zsets.append(zsets[i] | bit)
        # For each row bit, the rays zero on it, as a bitmask over ray indices.
        zero_rays = {}
        every_ray = (1 << len(rays)) - 1
        for k, z in enumerate(zsets):
            while z:
                low = z & -z
                zero_rays[low] = zero_rays.get(low, 0) | (1 << k)
                z ^= low
        for ip in plus:
            zp = zsets[ip]
            rp = rays[ip]
            vp = vals[ip]
            for im in minus:
                common = zp & zsets[im]
                if common.bit_count() < dim - 1:
                    continue
                # Adjacent when no third ray is zero on every row of ``common``.
                pair = (1 << ip) | (1 << im)
                shared = every_ray
                rest = common
                while rest and shared != pair:
                    low = rest & -rest
                    shared &= zero_rays[low]
                    rest ^= low
                if shared != pair:
                    continue
                vm = vals[im]
                ray = [vp * y - vm * x for x, y in zip(rp, rays[im])]
                g = gcd(*ray)
                new_rays.append(tuple(x // g for x in ray))
                new_zsets.append(common | bit)
        rays = new_rays
        zsets = new_zsets
        if not rays:
            return []

    verts = set()
    for ray in rays:
        h = ray[dim]
        if h == 0:
            raise AssertionError("unbounded direction in a boxed system")
        verts.add(tuple(Fraction(x, h) for x in ray[:dim]))
    return sorted(verts)


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
    """Reference oracle: solve every d-subset of rows and keep feasible basic points.

    Each d x d system is solved fraction-free (Bareiss 1968): the solution is
    ``num / den`` with integer ``num`` and ``den > 0``, and a row is satisfied
    when ``coeffs . num >= rhs * den``.
    """
    scaled = set()
    for coeffs, rhs in rows:
        vec = (*coeffs, rhs)
        den = lcm(*(x.denominator for x in vec))
        ints = [x.numerator * (den // x.denominator) for x in vec]
        g = gcd(*ints) or 1
        scaled.add(tuple(x // g for x in ints))
    int_rows = []
    for *coeffs, rhs in sorted(scaled):
        if any(coeffs):
            int_rows.append((tuple(coeffs), rhs))
        elif rhs > 0:
            return []
    if dim == 0:
        return [()]
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
            verts.add(tuple(Fraction(x, den) for x in num))
    return sorted(verts)
