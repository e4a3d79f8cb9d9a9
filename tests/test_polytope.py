"""Double description vs the brute-force active-set oracle."""

import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from effectalg.polytope import active_set_vertices, dd_vertices

from oracles import rref


def box_rows(d):
    rows = []
    for j in range(d):
        lo = [F(0)] * d
        lo[j] = F(1)
        rows.append((tuple(lo), F(0)))
        hi = [F(0)] * d
        hi[j] = F(-1)
        rows.append((tuple(hi), F(-1)))
    return rows


def test_unit_square():
    rows = box_rows(2)
    verts = dd_vertices(rows, 2)
    assert len(verts) == 4
    assert verts == active_set_vertices(rows, 2)


def test_cut_corner():
    rows = box_rows(2) + [((F(-1), F(-1)), F(-3, 2))]
    verts = dd_vertices(rows, 2)
    assert len(verts) == 5
    assert (F(1, 2), F(1)) in verts
    assert verts == active_set_vertices(rows, 2)


def test_infeasible():
    rows = box_rows(2) + [((F(1), F(0)), F(2))]
    assert dd_vertices(rows, 2) == []
    assert active_set_vertices(rows, 2) == []


def test_degenerate_segment():
    rows = box_rows(2) + [((F(1), F(1)), F(1)), ((F(-1), F(-1)), F(-1))]
    verts = dd_vertices(rows, 2)
    assert verts == [(F(0), F(1)), (F(1), F(0))]
    assert verts == active_set_vertices(rows, 2)


def test_zero_dimensional():
    assert dd_vertices([], 0) == [()]
    assert dd_vertices([((), F(1))], 0) == []


def test_vertex_certificates():
    rows = box_rows(3) + [((F(1), F(1), F(1)), F(1))]
    for v in dd_vertices(rows, 3):
        values = [(sum(x * y for x, y in zip(c, v)), r) for c, r in rows]
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
    rows = box_rows(d) + [(tuple(c), r) for c, r in extra]
    assert dd_vertices(rows, d) == active_set_vertices(rows, d)


def test_dd_matches_oracle_on_random_cuts_in_four_and_five_dimensions():
    """Faults in the zero-set bookkeeping of double description show only once
    rays carry several cut rows, from dimension 4 on."""
    rng = random.Random(20240913)
    for _ in range(60):
        d = rng.randint(4, 5)
        cuts = [(tuple(F(rng.randint(-2, 2)) for _ in range(d)),
                 F(rng.randint(-3, 2), rng.randint(1, 2)))
                for _ in range(rng.randint(1, 6))]
        rows = box_rows(d) + cuts
        assert dd_vertices(rows, d) == active_set_vertices(rows, d)
