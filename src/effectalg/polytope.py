"""Exact vertex enumeration for bounded rational polytopes in the orthant.

Input is a system of integer halfspaces ``coeffs . t >= rhs`` in d variables
that includes t_j >= 0 for every j and bounds the polytope.  ``dd_vertices``
enumerates the vertices by incremental double description on the
homogenization cone, seeded with the orthant cone t >= 0, h >= 0, and returns
them as primitive integer rays: integers in and out.  The brute-force
active-set oracle that checks it lives with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

from math import gcd

from .core import GuardExceeded

GUARD_DIM = 16


def _primitive_halfspaces(rows) -> list[tuple[int, ...]]:
    """Each integer row ``coeffs . t >= rhs`` as the primitive vector
    ``(coeffs, -rhs)``, deduplicated in first-seen order."""
    out = {}
    for coeffs, rhs in rows:
        vec = (*coeffs, -rhs)
        g = gcd(*vec) or 1
        out.setdefault(tuple(v // g for v in vec), None)
    return list(out)


def dd_vertices(rows, dim: int):
    """Vertices via double description over the homogenization cone, as the
    sorted, distinct, primitive integer rays ``(t_1, ..., t_d, h)`` with
    ``h > 0``: the vertex is ``t / h``.  The rows must include t_j >= 0 for
    every j (``ValueError`` otherwise) and bound the polytope.

    Following Fukuda & Prodon (1996), the cone starts as the orthant
    t >= 0, h >= 0 and takes the other rows in input order.  Every ray satisfies
    row m as ``m . ray >= 0``; each ray's zero set is an int bitmask over the
    rows seen so far.  Two rays are adjacent when no third ray is zero wherever
    both are; the test runs only when their zero sets share at least ``dim - 1``
    rows, as ANDs of per-row bitmasks over the rays.  The ray that the pair
    spans on the new row's hyperplane has zero set ``common | bit(row)``: it is
    a positive combination of two rays that satisfy every earlier row, so it is
    zero exactly where both are.
    """
    hom_rows = []
    for vec in _primitive_halfspaces(rows):
        if any(vec[:-1]):
            hom_rows.append(vec)
        elif vec[-1] < 0:                      # 0 >= positive rhs
            return []
    if dim == 0:
        return [(1,)]
    if dim > GUARD_DIM:
        raise GuardExceeded(f"double description guarded at {GUARD_DIM} free dimensions")

    # Seed rows: row j < dim is t_j >= 0, row dim is h >= 0.  The orthant is
    # self-dual: ray j is e_j too, zero on every seed row but its own.
    rays = [tuple(int(c == j) for c in range(dim + 1)) for j in range(dim + 1)]
    seed_rows = set(rays[:dim])
    if not seed_rows.issubset(hom_rows):
        raise ValueError("rows must include t_j >= 0 for every j")
    new_rows = [r for r in hom_rows if r not in seed_rows]
    zsets = [(2 << dim) - 1 - (1 << j) for j in range(dim + 1)]

    for offset, m in enumerate(new_rows):
        bit = 1 << (dim + 1 + offset)
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

    if any(ray[dim] == 0 for ray in rays):
        raise AssertionError("unbounded direction: the rows do not bound the polytope")
    return sorted(set(rays))
