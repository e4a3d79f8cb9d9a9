"""Exact linear algebra over rationals.

Everything here works on plain Python lists/tuples of Fraction; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    acc = ZERO
    for x, y in zip(a, b):
        if x and y:
            acc += x * y
    return acc


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a copy of ``rows``; returns (rref, pivot columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
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


def affine_parametrization(eq_rows: list[Sequence[Fraction]], eq_rhs: Sequence[Fraction],
                           nvars: int):
    """Solve ``A x = b`` exactly.

    Returns None when inconsistent, otherwise ``(c, free_cols, basis)`` so that the
    solution set is ``x = c + sum_j t_j * basis[j]`` with one basis vector per free
    column and ``basis[j][free_cols[j]] == 1``.
    """
    aug = [list(row) + [rhs] for row, rhs in zip(eq_rows, eq_rhs)]
    if not aug:
        c = tuple(ZERO for _ in range(nvars))
        free = list(range(nvars))
        basis = [tuple(ONE if i == f else ZERO for i in range(nvars)) for f in free]
        return c, free, basis
    red, pivots = rref(aug)
    if nvars in pivots:
        return None  # pivot in the rhs column: 0 = nonzero
    pivot_set = set(pivots)
    free = [c for c in range(nvars) if c not in pivot_set]
    c_vec = [ZERO] * nvars
    for r, p in enumerate(pivots):
        c_vec[p] = red[r][nvars]
    basis = []
    for f in free:
        col = [ZERO] * nvars
        col[f] = ONE
        for r, p in enumerate(pivots):
            col[p] = -red[r][f]
        basis.append(tuple(col))
    return tuple(c_vec), free, basis


def primitive(vec: Sequence[Fraction]) -> Vec:
    """Scale a rational vector to a primitive integer vector (positive multiple)."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(Fraction(v) for v in ints)


# Small dense integer-matrix helpers (used for group endomorphism extensions).

def mat_identity(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))

def mat_mul(a, b):
    k = len(a)
    n = len(b[0])
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(n))
                 for i in range(k))

def mat_pow(a, e: int):
    result = mat_identity(len(a))
    base = a
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result

def mat_vec(a, x):
    return tuple(sum(row[j] * x[j] for j in range(len(x))) for row in a)
