"""Exact linear algebra in integers.

The elimination takes sparse integer rows, works on them as primitive integer
vectors and returns its parametrization in integers over one common
denominator.  ``Vec``, ``ZERO`` and ``ONE`` are the rational vectors and
constants of the layers that read states as Fractions.  No floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _cancel(row: dict[int, int], pivot: dict[int, int], col: int) -> dict[int, int]:
    """``pivot[col] * row - row[col] * pivot``, made primitive: zero at ``col``."""
    a, b = pivot[col], row[col]
    out = {j: a * x for j, x in row.items()}
    for j, x in pivot.items():
        v = out.get(j, 0) - b * x
        if v:
            out[j] = v
        else:
            out.pop(j, None)
    return _primitive(out)


def affine_parametrization(eq_rows: Sequence[dict[int, int]], eq_rhs: Sequence[int],
                           nvars: int):
    """Solve ``A x = b`` exactly, for integer rows given as sparse dicts
    ``{column: coefficient}`` with no zero coefficient, and integer ``b``.

    Returns None when inconsistent, otherwise ``(c, free_cols, columns, den)``,
    all integers, so that the solution set is
    ``den * x_i = c[i] + sum_j columns[i][j] * t_j`` with one parameter per free
    column and ``columns[free_cols[j]][j] == den``: the parametrization read off
    the reduced row echelon form of ``[A | b]``, over ``den``, the lcm of the
    pivot coefficients.

    Each row is made primitive with its right-hand side stored at column
    ``nvars``.  Elimination is incremental and sparse, and keeps
    every pivot row free of the other pivot columns.  A new row is reduced at
    the pivot columns in its support; a redundant row reduces to nothing, and a
    row left with only its right-hand side means ``0 = nonzero``.  Otherwise its
    leading column becomes a new pivot and is cleared from the earlier pivot
    rows.  The leading column of any vector in the row space is a pivot column
    of its reduced row echelon form, so the pivots found are exactly those, and
    the pivot rows are that form's rows up to scaling.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row, rhs in zip(eq_rows, eq_rhs):
        r = _primitive({**row, nvars: rhs} if rhs else row)
        for p in [j for j in r if j in pivots]:
            r = _cancel(r, pivots[p], p)
        if not r:
            continue
        lead = min(r)
        if lead == nvars:
            return None
        for p, other in pivots.items():
            if lead in other:
                pivots[p] = _cancel(other, r, lead)
        pivots[lead] = r
    free = [j for j in range(nvars) if j not in pivots]
    den = lcm(*(r[p] for p, r in pivots.items()))
    c = [0] * nvars
    columns = [[0] * len(free) for _ in range(nvars)]
    for j, f in enumerate(free):
        columns[f][j] = den
    for p, r in pivots.items():
        m = den // r[p]        # r[p] x_p + sum_f r[f] t_f = r[nvars], times m
        c[p] = m * r.get(nvars, 0)
        columns[p] = [-m * r.get(f, 0) for f in free]
    return c, free, columns, den
