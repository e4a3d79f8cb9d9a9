"""Exact vertex enumeration for rational polytopes inside the unit box.

Input is a system of halfspaces ``coeffs . t >= rhs`` over t in [0,1]^d (callers
must include the box rows; every feasible point must lie in the unit box).  Two
independent routes are provided:

* ``dd_vertices``  - incremental double description on the homogenization cone,
  seeded with the box cone over [0,1]^d;
* ``active_set_vertices`` - brute force over all d-subsets of rows, keeping the
  feasible solutions whose active set has full rank.

Both return the same lexicographically sorted vertex list on bounded inputs; the
second is the reference oracle for the first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb

from .core import GuardExceeded
from .linalg import ZERO, ONE, dot, primitive

Row = tuple[tuple[Fraction, ...], Fraction]


def normalize_row(coeffs, rhs) -> Row:
    """Canonical integer form of ``coeffs . t >= rhs`` (positive scaling only)."""
    vec = primitive(tuple(coeffs) + (rhs,))
    return vec[:-1], vec[-1]


def dedupe_rows(rows) -> list[Row]:
    seen = set()
    out = []
    for coeffs, rhs in rows:
        key = normalize_row(coeffs, rhs)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _check_constant_rows(rows):
    """Split off rows with zero coefficients; returns (real rows, feasible)."""
    real = []
    for coeffs, rhs in rows:
        if any(coeffs):
            real.append((coeffs, rhs))
        elif rhs > 0:
            return [], False
    return real, True


def dd_vertices(rows, dim: int, guard_dim: int = 14):
    """Vertices via double description over the homogenization cone."""
    rows = dedupe_rows(rows)
    rows, feasible = _check_constant_rows(rows)
    if not feasible:
        return []
    if dim == 0:
        return [()]
    if dim > guard_dim:
        raise GuardExceeded(f"double description guarded at {guard_dim} free dimensions")

    # Global row list: the box cone rows first, then the homogenized input rows.
    # A ray y = (t, h) satisfies row m as m . y >= 0.
    box_rows = []
    for j in range(dim):
        lo = [ZERO] * (dim + 1)
        lo[j] = ONE
        box_rows.append(tuple(lo))                   # t_j >= 0
        hi = [ZERO] * (dim + 1)
        hi[j] = -ONE
        hi[dim] = ONE
        box_rows.append(tuple(hi))                   # h - t_j >= 0
    hom_rows = [tuple(coeffs) + (-rhs,) for coeffs, rhs in rows]
    all_rows = box_rows + [r for r in hom_rows if r not in set(box_rows)]

    rays = [primitive(tuple(Fraction(b) for b in bits) + (ONE,))
            for bits in product((0, 1), repeat=dim)]

    def zero_set(ray, upto):
        return frozenset(i for i in range(upto) if dot(all_rows[i], ray) == 0)

    processed = len(box_rows)
    zsets = [zero_set(r, processed) for r in rays]

    for idx in range(processed, len(all_rows)):
        m = all_rows[idx]
        vals = [dot(m, r) for r in rays]
        if all(v >= 0 for v in vals):
            zsets = [z | {idx} if vals[i] == 0 else z for i, z in enumerate(zsets)]
            continue
        plus = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        new_rays = []
        new_zsets = []
        for i in plus + zero:
            new_rays.append(rays[i])
            new_zsets.append(zsets[i] | {idx} if vals[i] == 0 else zsets[i])
        seen = set(new_rays)
        for ip in plus:
            for im in minus:
                common = zsets[ip] & zsets[im]
                adjacent = not any(
                    k != ip and k != im and common <= zsets[k]
                    for k in range(len(rays)))
                if not adjacent:
                    continue
                combined = primitive(tuple(
                    vals[ip] * rays[im][c] - vals[im] * rays[ip][c]
                    for c in range(dim + 1)))
                if combined in seen:
                    continue
                seen.add(combined)
                new_rays.append(combined)
                new_zsets.append(zero_set(combined, idx + 1))
        rays = new_rays
        zsets = new_zsets
        if not rays:
            break

    verts = set()
    for ray in rays:
        h = ray[dim]
        if h == 0:
            raise AssertionError("unbounded direction in a boxed system")
        verts.add(tuple(x / h for x in ray[:dim]))
    return sorted(verts)


def _solve_square(subset, dim: int):
    """Gaussian elimination on a dim x dim system; None when singular."""
    m = [list(coeffs) + [rhs] for coeffs, rhs in subset]
    for col in range(dim):
        piv = next((r for r in range(col, dim) if m[r][col] != 0), None)
        if piv is None:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        prow = m[col]
        pval = prow[col]
        for r in range(col + 1, dim):
            f = m[r][col]
            if f:
                f /= pval
                row = m[r]
                for c2 in range(col, dim + 1):
                    row[c2] -= f * prow[c2]
    sol = [ZERO] * dim
    for r in range(dim - 1, -1, -1):
        acc = m[r][dim]
        row = m[r]
        for c2 in range(r + 1, dim):
            if row[c2]:
                acc -= row[c2] * sol[c2]
        sol[r] = acc / row[r]
    return tuple(sol)


def active_set_vertices(rows, dim: int, guard_systems: int = 2_000_000):
    """Reference oracle: solve every d-subset of rows and keep feasible basic points."""
    rows = dedupe_rows(rows)
    rows, feasible = _check_constant_rows(rows)
    if not feasible:
        return []
    if dim == 0:
        return [()]
    total = comb(len(rows), dim)
    if total > guard_systems:
        raise GuardExceeded(
            f"active-set oracle would solve {total} systems (guard {guard_systems})")
    verts = set()
    for subset in combinations(rows, dim):
        sol = _solve_square(subset, dim)
        if sol is None:
            continue
        if all(dot(c, sol) >= r for c, r in rows):
            verts.add(sol)
    return sorted(verts)

