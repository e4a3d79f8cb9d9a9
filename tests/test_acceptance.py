"""The acceptance checklist: ten end-to-end checks, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per check.
Every expected value is exact; the budgets are wall-clock seconds.
"""

import random
import time
from fractions import Fraction as F
from functools import lru_cache
from itertools import product as iproduct
from operator import add, le

from effectalg import states
from effectalg.catalog import (build_boolean, build_chain, build_even_subsets,
                               build_product, small_catalog)
from effectalg.duality import VertexMap
from effectalg.fuzz import random_algebra
from effectalg.operators import (compose, enumerate_endomorphisms, induced_state_map,
                                 minimal_potency)
from effectalg.states import compute_states
from effectalg.suite import (check_even_subsets_rdp, check_extension_matrices,
                             check_mv_agreement, check_square_product_operators,
                             check_strict_plane_clan_gap)
from oracles import active_set_vertices, induced_state_self_map, law_report_counts, power
from tables import sums_dict


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{self.name} {status} ({elapsed:.2f}s / budget {self.seconds:g}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its {self.seconds}s budget"
        return False


@lru_cache(maxsize=1)
def operator_population():
    """Catalog algebras up to 9 elements plus 200 seeded random validated tables."""
    population = list(small_catalog(max_elements=9))
    rng = random.Random(20240913)
    for i in range(200):
        name, E = random_algebra(rng, max_elements=9)
        population.append((f"random[{i}]:{name}", E))
    return population


def test_a01_strict_plane_evaluation_gap():
    """Two extremal states on the strict-plane interval; the pointwise sum of two
    evaluation functions has no preimage inside the interval.  The suite check
    is the one definition; this pins its verdict and its witness."""
    with Budget("A01 strict-plane evaluation gap", 1.0):
        result = check_strict_plane_clan_gap()
        assert result.passed
        assert result.details == {
            "extremal_states": 2,
            "a_hat": ["3/10", "3/10"],
            "witness": {"kind": "sum", "pair": (2, 3),
                        "sum_values": ["7/10", "1"],
                        "missing_preimage": ["1", "7/10"]},
        }


def test_a02_even_subsets_refinement_failure():
    """Refinement fails on the even-subset family with a one-shot verifiable
    witness; Boolean cubes and chains refine.  The suite check is the one
    definition; this pins its verdict and its witness."""
    with Budget("A02 even-subset refinement failure", 5.0):
        result = check_even_subsets_rdp()
        assert result.passed
        assert result.details == {
            "even_subsets_4": False, "witness": (1, 6, 2, 5),
            **{f"boolean({k})": True for k in (1, 2, 3)},
            **{f"chain({n})": True for n in range(1, 9)},
        }


def test_a03_boolean2_operator_census():
    """Exactly 4 endomorphisms on the 4-element Boolean cube, 3 idempotent, and
    the complement swap is 3-potent but not 2-potent; cross-checked against a
    scan of all 4^4 total maps."""
    with Budget("A03 boolean(2) operator census", 1.0):
        E = build_boolean(2)
        endos = enumerate_endomorphisms(E)
        assert len(endos) == 4
        idem = [m for m in endos if compose(m, m) == m]
        assert len(idem) == 3
        assert all(m[1] in (0, 1, 3) for m in idem)
        swap = (0, 2, 1, 3)
        assert swap in endos
        assert power(swap, 2) != swap and power(swap, 3) == swap

        oracle = []
        sums = sums_dict(E)
        for m in iproduct(range(4), repeat=4):
            if m[3] != 3:
                continue
            if all(sums.get((m[i], m[j])) == m[k] for (i, j), k in sums.items()):
                oracle.append(m)
        assert sorted(oracle) == endos


def test_a04_square_product_suite():
    """Both coordinate-repeat operators on chain(2) x chain(2) are join-preserving
    idempotents with extremal-state preservation; the polytope has exactly the
    two coordinate states and the first operator collapses both onto m1.  The
    suite check is the one definition; this pins its verdict."""
    with Budget("A04 square-product operator suite", 1.0):
        result = check_square_product_operators()
        assert result.passed
        assert result.details == {"vertices": 2, "collapse_to_m1": True}


def test_a05_operator_laws_population():
    """The idempotent-operator laws hold with zero counterexamples over the
    catalog (up to 9 elements) plus 200 seeded random validated tables.  Every
    law report is checked against the test-side scan of each law wherever the
    law applies, and those scans can fail (``oracles.law_report_counts``)."""
    with Budget("A05 operator laws over the population", 60.0):
        checked = law_report_counts(E for _name, E in operator_population())["maps"]
        assert checked >= 200


def by_name(keys, rows):
    """Pinned per-algebra details: one dict over ``keys`` per named row."""
    return {name: dict(zip(keys, row)) for name, row in rows.items()}


def test_a06_mv_agreement_exhaustive():
    """Over every unary self-map of each MV algebra in the roster (chains up to
    chain(8), Boolean cubes and products of chains): the MV internal-state
    axioms hold iff the map is a strong state-operator, and idempotent MV
    endomorphisms are exactly the join-preserving idempotent endomorphisms,
    which all preserve extremal states.  Both readings require
    tau(x*) = tau(x)*, so every other map fails both and the scan visits only
    the star-equivariant ones: n images per star pair {x, x*}, and a fixed
    point of star for each fixed point.  The suite check is the one
    definition; this pins its counts, and the endomorphism counts against the
    enumerator."""
    with Budget("A06 MV agreement, exhaustive", 120.0):
        result = check_mv_agreement()
        assert result.passed
        keys = ("scanned", "endomorphisms", "mv_state_operators", "state_morphisms",
                "esp_confirmed")
        # chains admit only the identity; chain(n) has (n + 1) // 2 star pairs
        # and, for even n, the fixed point n/2
        chains = {f"chain({n})": ((n + 1) ** ((n + 1) // 2), 1, 1, 1, 1)
                  for n in range(1, 9)}
        assert result.details == by_name(keys, {
            **chains,
            "boolean(1)": (2, 1, 1, 1, 1),
            "boolean(2)": (16, 4, 3, 3, 3),
            "boolean(3)": (8 ** 4, 27, 10, 10, 10),
            "product(chain(1),chain(1))": (16, 4, 3, 3, 3),
            "product(chain(1),chain(2))": (6 ** 3, 2, 2, 2, 2),
            "product(chain(2),chain(2))": (9 ** 4, 4, 3, 3, 3),
            "product(chain(1),chain(3))": (8 ** 4, 2, 2, 2, 2),
            "product(chain(1),chain(1),chain(1))": (8 ** 4, 27, 10, 10, 10),
        })
        for name, E in small_catalog():
            if name in result.details:
                assert (result.details[name]["endomorphisms"]
                        == len(enumerate_endomorphisms(E))), name


def integer_images(images, scale: int) -> list[tuple[int, ...]]:
    """The Fraction vertex images times ``scale``, as integers; every
    denominator must divide ``scale``."""
    ratios = [[x.as_integer_ratio() for x in img] for img in images]
    assert all(scale % d == 0 for row in ratios for _n, d in row)
    return [tuple(n * (scale // d) for n, d in row) for row in ratios]


def probe_induced_map(rng, P, m, images, sums, count: int) -> int:
    """Check ``count`` random convex combinations q = sum_i w_i v_i of the
    vertices against the vertex images; returns the number checked.

    Exact integer arithmetic on the polytope's integer vertices and the
    ``integer_images`` over its scale, with weights w_i in [1, 16].  For every
    probe, q o tau must equal the same combination of the vertex images, and
    must be a state by the direct check against the sum table ``sums``: 0 at
    0, the weight total at 1, values between them, additive on every defined
    sum.  q o tau reads q only on the image of tau, so q is formed on the
    image alone and the sum checks are deduplicated.  Each list below holds
    one value per probe; a column of vertex values is combined once, however
    often it recurs.
    """
    iverts = P.int_vertices
    weights = [[rng.getrandbits(4) + 1 for _ in range(count)] for _ in iverts]
    totals = [P.scale * t for t in map(sum, zip(*weights))]
    combined = {}

    def combine(col):
        if col not in combined:
            out = [0] * count
            for c, row in zip(col, weights):
                if c:
                    out = list(map(add, out, map(c.__mul__, row)))
            combined[col] = out
        return combined[col]

    used = sorted(set(m))
    at = [used.index(x) for x in m]
    q = [combine(tuple(iv[x] for iv in iverts)) for x in used]
    assert all(q[at[a]] == combine(col) for a, col in enumerate(zip(*images)))
    assert not any(q[at[0]]) and q[at[-1]] == totals
    assert all(min(col) >= 0 and all(map(le, col, totals)) for col in q)
    sums = {(at[a], at[b], at[k]) for (a, b), k in sums}
    assert all(list(map(add, q[a], q[b])) == q[k] for a, b, k in sums)
    return len(totals)


def test_a07_induced_maps_population():
    """Every potent endomorphism in the A05 population induces a potent affine
    self-map of the polytope whose vertex values stay inside the source value
    sets.  ``induced_state_map`` only checks that tau is an endomorphism: then
    s o tau is a state by definition, and s -> s o tau is linear.  100 exact
    random convex combinations per map confirm it here, against the returned
    vertex images and a direct state check.  The images are read once per map,
    as integers over the polytope's scale, and compared with its integer
    vertices."""
    with Budget("A07 induced state maps", 30.0):
        rng = random.Random(11)
        checked = 0
        for name, E in operator_population():
            P = compute_states(E)
            if P.empty:
                continue
            sums = sums_dict(E).items()
            for m in enumerate_endomorphisms(E):
                n = minimal_potency(m)
                if n is None:
                    continue
                ind = induced_state_map(E, m, P)
                assert ind.potency == n
                images = integer_images(ind.vertex_images, P.scale)
                probes = probe_induced_map(rng, P, m, images, sums, 100)
                assert probes == 100
                mn = power(m, n)
                for iv, img in zip(P.int_vertices, images):
                    assert tuple(iv[x] for x in m) == img
                    assert tuple(iv[x] for x in mn) == img
                    assert set(img) <= set(iv)
                checked += 1
        assert checked >= 200


def test_a08_round_trips_all_small_simplices():
    """p o g = g' o p for every vertex self-map with g^2 = g or g^3 = g on up to
    5 vertices, against the test-side pull-back route: at every vertex, and at
    50 random interior rational points per case."""
    with Budget("A08 duality round trips", 60.0):
        rng = random.Random(5)
        cases = probes = 0
        for m in range(1, 6):
            for image in iproduct(range(m), repeat=m):
                for n in (2, 3):
                    if power(image, n) != tuple(image):
                        continue
                    g = VertexMap(tuple(image), n)
                    for x in range(m):
                        point = tuple(F(int(y == x)) for y in range(m))
                        assert (g.push_forward(point)
                                == induced_state_self_map(g, point)), (m, image, n)
                    for _ in range(50):
                        weights = [rng.randint(1, 24) for _ in range(m)]
                        w = tuple(F(x, sum(weights)) for x in weights)
                        assert g.push_forward(w) == induced_state_self_map(g, w), w
                        probes += 1
                    cases += 1
        assert cases > 500
        assert probes == 50 * cases


def test_a09_group_extensions():
    """Every potent endomorphism of the materialized unit box and 2x1 box extends
    to an integer matrix; the coordinate swap extends to the swap matrix and the
    first-coordinate repeat to its projection.  The suite check is the one
    definition; this pins its verdict and its counts.  That each matrix keeps
    the potency and the positive cone and matches the table on [0, u] follows
    from additivity; ``test_pogroup`` checks it directly."""
    with Budget("A09 matrix extensions", 5.0):
        result = check_extension_matrices()
        assert result.passed
        assert result.details == {
            "(1, 1)": {"extended": 4}, "(2, 1)": {"extended": 2},
            "swap": ((0, 1), (1, 0)), "repeat_first": ((1, 0), (1, 0)),
        }


def test_a10_vertex_enumeration_cross_check(monkeypatch):
    """Double description and the brute-force active-set oracle give identical
    polytopes on every standing catalog algebra and four larger ones, all with
    at most 10 free dimensions: ``compute_states`` runs once as shipped and once
    with ``states.dd_vertices`` replaced by the oracle.  The catalog algebras'
    counts are pinned."""
    with Budget("A10 vertex enumeration cross-check", 60.0):
        larger = [("boolean(4)", build_boolean(4)),
                  ("even_subsets(6)", build_even_subsets(6)),
                  ("product(2,3)", build_product([build_chain(2), build_chain(3)])),
                  ("product(3,3)", build_product([build_chain(3), build_chain(3)]))]
        catalog = list(small_catalog())
        shipped = {name: compute_states(E) for name, E in catalog + larger}
        monkeypatch.setattr(states, "dd_vertices", active_set_vertices)
        for name, E in catalog + larger:
            assert shipped[name].free_dim <= 10, name
            assert compute_states(E) == shipped[name], name
        chains = {f"chain({n})": (1, 0) for n in range(1, 9)}
        counts = {name: {"vertices": len(shipped[name].int_vertices),
                         "free_dim": shipped[name].free_dim} for name, _E in catalog}
        assert counts == by_name(("vertices", "free_dim"), {
            **chains,
            "boolean(1)": (1, 0), "boolean(2)": (2, 1), "boolean(3)": (3, 2),
            "product(chain(1),chain(1))": (2, 1),
            "product(chain(1),chain(2))": (2, 1),
            "product(chain(2),chain(2))": (2, 1),
            "product(chain(1),chain(3))": (2, 1),
            "product(chain(1),chain(1),chain(1))": (3, 2),
            "even_subsets(4)": (8, 3),
        })
