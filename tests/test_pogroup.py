"""Ordered groups, interval algebras, materialization, matrix extensions."""

from fractions import Fraction as F
from itertools import product
from math import prod

import pytest

from effectalg.catalog import build_boolean, build_chain
from effectalg.core import GuardExceeded, is_isomorphic
from effectalg.operators import (enumerate_endomorphisms, induced_state_map,
                                 is_endomorphism, minimal_potency)
from effectalg.pogroup import (IntervalAlgebra, PoGroupSpec, extend_endomorphism,
                               extremal_states, group_leq, materialize)
from effectalg.states import compute_states
from effectalg.structure import check_rdp
from oracles import mat_mul


def test_strict_order_comparisons():
    spec = PoGroupSpec(2, "Q", "strict")
    assert not group_leq(spec, (1, F(7, 10)), (1, 1))
    assert group_leq(spec, (F(3, 10), F(3, 10)), (1, 1))
    assert group_leq(spec, (F(1, 2), F(1, 3)), (F(1, 2), F(1, 3)))
    assert group_leq(spec, (F(1, 3), F(2, 5)), (F(1, 3), F(2, 5)))


def test_product_and_lex_orders():
    prod = PoGroupSpec(2, "Z", "product")
    assert group_leq(prod, (0, 1), (1, 1))
    assert not group_leq(prod, (2, 0), (1, 1))
    lex = PoGroupSpec(2, "Z", "lex")
    assert group_leq(lex, (0, 100), (1, -100))
    assert group_leq(lex, (1, -100), (1, 0))
    assert not group_leq(lex, (2, 0), (1, 5))


def test_rank_mismatch_rejected():
    spec = PoGroupSpec(2, "Z", "product")
    with pytest.raises(ValueError):
        group_leq(spec, (1, 2, 3), (0, 0))
    with pytest.raises(ValueError):
        PoGroupSpec(2, "Z", "product").element((F(1, 2), 0))


def test_strict_cone_is_strict():
    """Each cone is pointed: 0 <= x <= 0 only at x = 0, on three points and
    on the whole grid of a/b with |a| <= 6 and 1 <= b <= 4 in each coordinate."""
    grid = sorted({F(a, b) for a in range(-6, 7) for b in range(1, 5)})
    points = [(F(1, 3), F(-1, 3)), (F(1, 2), F(1, 2)), (0, F(2, 7)), *product(grid, repeat=2)]
    for order in ("product", "lex", "strict"):
        spec = PoGroupSpec(2, "Q", order)
        zero = (0, 0)
        for x in points:
            if group_leq(spec, zero, x) and group_leq(spec, x, zero):
                assert spec.element(x) == spec.element(zero)


def test_interval_membership():
    alg = IntervalAlgebra(PoGroupSpec(2, "Q", "strict"), (1, 1))
    assert alg.contains((F(3, 10), F(3, 10)))
    assert not alg.contains((1, F(7, 10)))
    assert alg.contains(alg.unit)
    assert alg.contains(alg.zero)


def test_materialize_unit_square_is_boolean2():
    alg = IntervalAlgebra(PoGroupSpec(2, "Z", "product"), (1, 1))
    E = materialize(alg)
    assert E.n == 4
    assert is_isomorphic(E, build_boolean(2))


def test_materialize_segment_is_chain():
    for n in (1, 3, 5):
        alg = IntervalAlgebra(PoGroupSpec(1, "Z", "product"), (n,))
        assert is_isomorphic(materialize(alg), build_chain(n))


def test_materialize_2x1_has_rdp():
    alg = IntervalAlgebra(PoGroupSpec(2, "Z", "product"), (2, 1))
    E = materialize(alg)
    assert E.n == 6
    holds, _ = check_rdp(E)
    assert holds


def test_materialized_intervals_always_have_rdp():
    for u in [(1,), (3,), (4,), (1, 1), (2, 1), (2, 2), (3, 2), (1, 1, 1)]:
        alg = IntervalAlgebra(PoGroupSpec(len(u), "Z", "product"), u)
        E = materialize(alg)
        assert E.n == prod(c + 1 for c in u)
        assert check_rdp(E)[0]


def test_materialize_guard():
    alg = IntervalAlgebra(PoGroupSpec(2, "Z", "product"), (100, 100))
    with pytest.raises(GuardExceeded):
        materialize(alg)


def test_materialize_requires_product_order():
    with pytest.raises(ValueError):
        materialize(IntervalAlgebra(PoGroupSpec(2, "Z", "lex"), (1, 0)))


def test_extremal_states_families():
    strict = IntervalAlgebra(PoGroupSpec(2, "Q", "strict"), (1, 1))
    s0, s1 = extremal_states(strict)
    assert s0((F(1, 4), F(3, 4))) == F(3, 4)     # last coordinate first
    assert s1((F(1, 4), F(3, 4))) == F(1, 4)
    prod = IntervalAlgebra(PoGroupSpec(2, "Q", "product"), (2, 1))
    p0, p1 = extremal_states(prod)
    assert p0((1, 1)) == F(1, 2) and p1((1, 1)) == 1
    lex = IntervalAlgebra(PoGroupSpec(2, "Q", "lex"), (1, 1))
    assert len(extremal_states(lex)) == 1
    with pytest.raises(TypeError):     # a state takes the element alone
        p0((1, 1), 1)


def test_extension_identity_swap_repeat():
    alg = IntervalAlgebra(PoGroupSpec(2, "Z", "product"), (1, 1))
    E = materialize(alg)
    coords = E.meta["coords"]
    index = {c: i for i, c in enumerate(coords)}
    ident = tuple(range(E.n))
    swap = tuple(index[(b, a)] for (a, b) in coords)
    repeat = tuple(index[(a, a)] for (a, b) in coords)

    assert extend_endomorphism(E, ident) == ((1, 0), (0, 1))
    assert extend_endomorphism(E, swap) == ((0, 1), (1, 0))
    assert extend_endomorphism(E, repeat) == ((1, 0), (1, 0))


def test_every_potent_endomorphism_extends():
    """The matrix reproduces the table map on every point of [0, u], has no
    negative entries, and keeps the table map's potency."""
    for u in [(1, 1), (2, 1)]:
        alg = IntervalAlgebra(PoGroupSpec(2, "Z", "product"), u)
        E = materialize(alg)
        coords = E.meta["coords"]
        count = 0
        for m in enumerate_endomorphisms(E):
            n = minimal_potency(m)
            if n is None:
                continue
            M = extend_endomorphism(E, m)
            for i, p in enumerate(coords):
                assert mat_mul(M, [[c] for c in p]) == tuple((c,) for c in coords[m[i]])
            assert all(v >= 0 for row in M for v in row)
            Mn = M
            for _ in range(n - 1):
                Mn = mat_mul(Mn, M)
            assert Mn == M
            count += 1
        assert count >= 1


def test_non_endomorphism_rejected():
    """On the unit box, a map fixing 0 and 1 that sends both atoms to (0, 1)
    loses the sum (0, 1) + (1, 0) = (1, 1); neither the group extension nor the
    induced state map accepts it."""
    alg = IntervalAlgebra(PoGroupSpec(2, "Z", "product"), (1, 1))
    E = materialize(alg)
    coords = E.meta["coords"]
    m = tuple(coords.index((0, 1)) if 0 < i < E.n - 1 else i for i in range(E.n))
    assert m[0] == 0 and m[-1] == E.n - 1 and not is_endomorphism(E, m)
    with pytest.raises(ValueError, match="not an endomorphism"):
        extend_endomorphism(E, m)
    with pytest.raises(ValueError, match="not an endomorphism"):
        induced_state_map(E, m, compute_states(E))
