"""Double description vs the brute-force active-set oracle, on integer rows."""

import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from effectalg.polytope import dd_vertices

from oracles import active_set_vertices, rref


def box_rows(d):
    rows = []
    for j in range(d):
        lo = [0] * d
        lo[j] = 1
        rows.append((tuple(lo), 0))
        hi = [0] * d
        hi[j] = -1
        rows.append((tuple(hi), -1))
    return rows


def integer_row(coeffs, rhs):
    """A Fraction row ``coeffs . t >= rhs`` times the lcm of its denominators."""
    m = lcm(*(F(x).denominator for x in (*coeffs, rhs)))
    return tuple(int(x * m) for x in coeffs), int(rhs * m)


def test_unit_square():
    rows = box_rows(2)
    verts = dd_vertices(rows, 2)
    assert verts == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert verts == active_set_vertices(rows, 2)


def test_cut_corner():
    rows = box_rows(2) + [((-2, -2), -3)]
    verts = dd_vertices(rows, 2)
    assert len(verts) == 5
    assert (1, 2, 2) in verts
    assert verts == active_set_vertices(rows, 2)


def test_infeasible():
    rows = box_rows(2) + [((1, 0), 2)]
    assert dd_vertices(rows, 2) == []
    assert active_set_vertices(rows, 2) == []


def test_degenerate_segment():
    rows = box_rows(2) + [((1, 1), 1), ((-1, -1), -1)]
    verts = dd_vertices(rows, 2)
    assert verts == [(0, 1, 1), (1, 0, 1)]
    assert verts == active_set_vertices(rows, 2)


def test_rows_must_include_every_lower_bound():
    """Without t_1 >= 0 the orthant seed is not a cone of the rows."""
    with pytest.raises(ValueError, match="t_j >= 0"):
        dd_vertices([((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)], 2)


def test_rows_must_bound_the_polytope():
    with pytest.raises(AssertionError, match="unbounded direction"):
        dd_vertices([((1, 0), 0), ((0, 1), 0)], 2)


def test_zero_dimensional():
    assert dd_vertices([], 0) == [(1,)]
    assert dd_vertices([((), 1)], 0) == []


def test_rays_are_sorted_distinct_primitive_with_positive_h():
    rows = box_rows(2) + [((3, 1), 1), ((-1, -3), -2)]
    rays = dd_vertices(rows, 2)
    assert rays == sorted(set(rays)) == active_set_vertices(rows, 2)
    assert all(ray[-1] > 0 and gcd(*ray) == 1 for ray in rays)


def test_vertex_certificates():
    rows = box_rows(3) + [((1, 1, 1), 1)]
    for *t, h in dd_vertices(rows, 3):
        values = [(sum(x * y for x, y in zip(c, t)), r * h) for c, r in rows]
        assert all(value >= r for value, r in values)
        active = [list(c) for (c, _r), (value, r) in zip(rows, values) if value == r]
        assert len(rref(active)[1]) == 3


coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dd_matches_oracle_random(data):
    d = data.draw(st.integers(min_value=1, max_value=3))
    extra = data.draw(st.lists(
        st.tuples(st.lists(coeff, min_size=d, max_size=d),
                  st.fractions(min_value=-4, max_value=4, max_denominator=3)),
        max_size=5))
    rows = box_rows(d) + [integer_row(c, r) for c, r in extra]
    assert dd_vertices(rows, d) == active_set_vertices(rows, d)


def test_dd_matches_oracle_on_random_cuts_in_four_and_five_dimensions():
    """Faults in the zero-set bookkeeping of double description show only once
    rays carry several cut rows, from dimension 4 on."""
    rng = random.Random(20240913)
    for _ in range(60):
        d = rng.randint(4, 5)
        cuts = [integer_row([rng.randint(-2, 2) for _ in range(d)],
                            F(rng.randint(-3, 2), rng.randint(1, 2)))
                for _ in range(rng.randint(1, 6))]
        rows = box_rows(d) + cuts
        assert dd_vertices(rows, d) == active_set_vertices(rows, d)
