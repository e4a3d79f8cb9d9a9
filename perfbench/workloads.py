"""The benchmark's three workloads over the public ``effectalg`` functions.

Each workload builds its inputs in ``setup``, runs one roster item at a time in
``run_item`` (the only code the benchmark times), and turns an item's result
into canonical text in ``describe`` for the exact-output checks.  Every call
into the package goes through its module attribute (``states.compute_states``,
not a name bound at import), so the traced run sees it.

* ``algebra``   - the table write path: build, validate, derive order, RDP.
* ``states``    - elimination and double description, on inputs built in setup.
* ``operators`` - the table and polytope read path: endomorphism search,
  classification with ESP, law reports and induced state maps.
"""

from __future__ import annotations

import inspect
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from effectalg import catalog, fuzz, operators, states, structure
from effectalg.catalog import CatalogSpec

DEFAULT_POPULATION_SEED = 20240913


@dataclass
class Item:
    name: str
    data: Any


class Ops:
    """Counts the package calls a pass attempts and the ones that raise."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise


def _chain(n):
    return CatalogSpec("chain", n=n)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class Algebra:
    """Build each catalog algebra, derive its order, run ``check_rdp``.

    The roster covers a sparse table (chain), a dense one (boolean), one
    without RDP (even subsets) and a product.  Setup only lists the specs and
    warms the same code path on small members of each family.
    """

    name = "algebra"
    ROSTER = {
        "boolean(8)": CatalogSpec("boolean", k=8),
        "chain(128)": _chain(128),
        "even_subsets(8)": CatalogSpec("even_subsets", m=8),
        "product(chain(4)x3)": CatalogSpec("product", factors=(_chain(4),) * 3),
    }
    TINY = {
        "boolean(3)": CatalogSpec("boolean", k=3),
        "chain(8)": _chain(8),
        "even_subsets(4)": CatalogSpec("even_subsets", m=4),
        "product(chain(1)x2)": CatalogSpec("product", factors=(_chain(1),) * 2),
    }
    WARMUP = (CatalogSpec("boolean", k=4), _chain(24), CatalogSpec("even_subsets", m=4),
              CatalogSpec("product", factors=(_chain(2),) * 3))
    # (elements, defined ordered pairs, RDP): 2^8 and 3^8; 129 and 129*130/2;
    # 2^7 and (3^8 + 3)/4; 5^3 and 15^3.
    CLOSED = {
        "boolean(8)": (256, 6561, True),
        "chain(128)": (129, 8385, True),
        "even_subsets(8)": (128, 1641, False),
        "product(chain(4)x3)": (125, 3375, True),
    }

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.roster = self.TINY if tiny else self.ROSTER

    def setup(self, seed: int) -> list[Item]:
        for spec in self.WARMUP:
            E = catalog.build_catalog(spec)
            structure.check_rdp(E)
        items = [Item(name, spec) for name, spec in self.roster.items()]
        random.Random(seed).shuffle(items)
        return items

    def run_item(self, item: Item, ops: Ops):
        E = ops(catalog.build_catalog, item.data)
        ops(lambda: E.order)
        return E, ops(structure.check_rdp, E)

    def describe(self, item: Item, result) -> str:
        E, (rdp, witness) = result
        rng = range(E.n)
        order = {
            "triples": E.sum_triples(),
            "leq": [(a, b) for a in rng for b in rng if E.leq(a, b)],
            "complement": [E.complement(a) for a in rng],
            "join": [[E.join(a, b) for b in rng] for a in rng],
            "meet": [[E.meet(a, b) for b in rng] for a in rng],
        }
        return json.dumps([item.name, E.n, order, rdp, witness])

    def check(self, item: Item, result) -> list[str]:
        if item.name not in self.CLOSED:
            return []
        E, (rdp, _w) = result
        triples = E.sum_triples()
        pairs = 2 * len(triples) - sum(1 for i, j, _k in triples if i == j)
        got = (E.n, pairs, rdp)
        want = self.CLOSED[item.name]
        return [] if got == want else [f"{item.name}: (n, pairs, rdp) {got} != {want}"]


class States:
    """``compute_states`` and ``is_order_determining`` on algebras built in setup.

    chain(48), boolean(6) and even_subsets(6) are bound by elimination (free
    dimension 0 or 5, hundreds of mostly redundant equality rows); the two
    horizontal sums are bound by double description (free dimension 10).
    """

    name = "states"
    ROSTER = {
        "chain(48)": lambda: catalog.build_chain(48),
        "boolean(6)": lambda: catalog.build_boolean(6),
        "even_subsets(6)": lambda: catalog.build_even_subsets(6),
        "horizontal_sum(5xboolean(3))":
            lambda: catalog.horizontal_sum([catalog.build_boolean(3)] * 5),
        "horizontal_sum(10xboolean(2))":
            lambda: catalog.horizontal_sum([catalog.build_boolean(2)] * 10),
    }
    TINY = {
        "chain(4)": lambda: catalog.build_chain(4),
        "boolean(3)": lambda: catalog.build_boolean(3),
        "horizontal_sum(2xboolean(2))":
            lambda: catalog.horizontal_sum([catalog.build_boolean(2)] * 2),
    }
    # (vertices, free dimension): 3^5 and 2^10 vertices for the horizontal sums.
    CLOSED = {
        "chain(48)": (1, 0),
        "boolean(6)": (6, 5),
        "even_subsets(6)": (12, 5),
        "horizontal_sum(5xboolean(3))": (243, 10),
        "horizontal_sum(10xboolean(2))": (1024, 10),
    }

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.roster = self.TINY if tiny else self.ROSTER

    def setup(self, seed: int) -> list[Item]:
        items = []
        for name, build in self.roster.items():
            E = build()
            E.order
            items.append(Item(name, E))
        random.Random(seed).shuffle(items)
        return items

    def run_item(self, item: Item, ops: Ops):
        E = item.data
        P = ops(states.compute_states, E)
        return P, ops(states.is_order_determining, E, P)

    def describe(self, item: Item, result) -> str:
        P, rep = result
        verts = [[_frac(x) for x in v] for v in sorted(P.vertices)]
        return json.dumps([item.name, P.free_dim, verts, rep.order_determining,
                           rep.separating, rep.od_witness, rep.sep_witness])

    def check(self, item: Item, result) -> list[str]:
        P, _rep = result
        E = item.data
        triples = E.sum_triples()
        errors = [f"{item.name}: vertex {v} is not a state" for v in P.vertices
                  if not _is_state(E, triples, v)]
        if item.name in self.CLOSED:
            got = (len(P.vertices), P.free_dim)
            if got != self.CLOSED[item.name]:
                errors.append(f"{item.name}: (vertices, free_dim) {got} != "
                              f"{self.CLOSED[item.name]}")
        return errors


def _is_state(E, triples, v) -> bool:
    """The state conditions, checked here from the sum triples alone."""
    return (len(v) == E.n and v[0] == 0 and v[-1] == 1
            and all(0 <= x <= 1 for x in v)
            and all(v[i] + v[j] == v[k] for i, j, k in triples))


class Operators:
    """Endomorphism search and classification on a population built in setup.

    The population is ``small_catalog(9)`` plus 200 ``random_algebra`` draws
    from the population seed (the default is the A05/A07 population), plus
    boolean(5), the search-heavy item, which is only enumerated and classified.
    Orders and polytopes are built in setup, so elimination and double
    description do no timed work here.
    """

    name = "operators"
    # boolean(5) has 5^5 endomorphisms (atom maps); the default population 18,560.
    CLOSED_ITEMS = {"search:boolean(5)": 3125}
    CLOSED_POPULATION = {DEFAULT_POPULATION_SEED: 18560}

    def __init__(self, tiny: bool = False,
                 population_seed: int = DEFAULT_POPULATION_SEED):
        self.tiny = tiny
        self.population_seed = population_seed

    def population(self) -> list[tuple[str, Any]]:
        size, draws, search_k = (4, 3, 2) if self.tiny else (9, 200, 5)
        out = list(catalog.small_catalog(size))
        rng = random.Random(self.population_seed)
        for i in range(draws):
            name, E = fuzz.random_algebra(rng, max_elements=size)
            out.append((f"random[{i}]:{name}", E))
        self.search_item = f"search:boolean({search_k})"
        out.append((self.search_item, catalog.build_boolean(search_k)))
        return out

    def setup(self, seed: int) -> list[Item]:
        items = []
        for name, E in self.population():
            E.order
            items.append(Item(name, (E, states.compute_states(E))))
        random.Random(seed).shuffle(items)
        # Skip the affinity probes while the keyword exists: their cost would
        # make the missing-import fix read as a slowdown, and they are due to
        # be replaced.
        params = inspect.signature(operators.induced_state_map).parameters
        self.induce_kwargs = {"affine_probes": 0} if "affine_probes" in params else {}
        square = catalog.build_product([catalog.build_chain(2)] * 2)
        self.canary = (square, states.compute_states(square),
                       operators.coordinate_repeat_maps(square))
        return items

    def run_item(self, item: Item, ops: Ops):
        E, P = item.data
        full = item.name != self.search_item
        maps = ops(operators.enumerate_endomorphisms, E)
        out = []
        for m in maps:
            prof = ops(operators.classify_operator, E, m, P)
            law = induced = None
            if full and prof.is_state_operator:
                law = ops(operators.operator_law_report, E, m)
            if full and prof.minimal_potency is not None:
                induced = ops(operators.induced_state_map, E, m, P, **self.induce_kwargs)
            out.append((prof, law, induced))
        return out

    def describe(self, item: Item, result) -> str:
        rows = []
        for prof, law, induced in result:
            row = [prof.to_dict()]
            if law is not None:
                row.append(sorted((k, v.applicable, v.holds) for k, v in law.items()))
            if induced is not None:
                row.append([induced.vertex_to_vertex, induced.potency])
            rows.append(row)
        return json.dumps([item.name, rows])

    def check(self, item: Item, result) -> list[str]:
        want = self.CLOSED_ITEMS.get(item.name)
        if want is not None and len(result) != want:
            return [f"{item.name}: {len(result)} endomorphisms != {want}"]
        return []

    def check_pass(self, results: dict) -> list[str]:
        want = self.CLOSED_POPULATION.get(self.population_seed)
        if want is None or self.tiny:
            return []
        got = sum(len(r) for name, r in results.items() if name != self.search_item)
        return [] if got == want else [f"population: {got} endomorphisms != {want}"]

    def run_canary(self) -> list[str]:
        """Default-argument ``induced_state_map`` on the coordinate-repeat maps
        of chain(2) x chain(2); returns each call's outcome ("ok" or the type of
        the exception it raised).  Never part of the timed pass."""
        E, P, maps = self.canary
        outcomes = []
        for m in maps:
            try:
                operators.induced_state_map(E, m, P)
                outcomes.append("ok")
            except Exception as exc:  # the outcome is the measurement
                outcomes.append(type(exc).__name__)
        return outcomes


WORKLOADS = {w.name: w for w in (Algebra, States, Operators)}
