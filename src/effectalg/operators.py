"""Endomorphisms of finite effect algebras and their internal-state classification.

An endomorphism preserves every defined sum and the unit (hence zero, complement,
order, and subtraction).  Idempotent endomorphisms play the role of internal
states; n-potent ones (tau^n = tau) generalize them.  Classification covers the
strong and join-preserving variants, kernels and faithfulness, and preservation
of extremal states.  The law report of an idempotent only decides which of its
structural laws apply: each follows from the definitions, proved in
``operator_law_report``'s docstring, and none is scanned for.  Nothing in the
package reads the report; it stays because the benchmark's operators workload
times it, and goes when that workload stops calling it.

Each map is read as cheaply as its definitions allow.  An endomorphism fixes 0
(0 + 0 = 0 gives f(0) + f(0) = f(0), so f(0) = 0), and a map that fixes 0
keeps every sum 0 + a = a, so ``is_endomorphism``, which is
``core.is_homomorphism`` from E to E, checks only the sums with a nonzero
first entry.  Potency is read off the image.  A strong operator is idempotent:
the pair (a, a) has the join tau(a), so tau(tau(a)) = tau(a); the strong test
runs only on idempotents.  Verdicts that depend on the algebra alone, its
lattice class and RDP, are computed once per algebra
(``FiniteEffectAlgebra.verdict``), not once per map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import not_
from typing import Optional, Sequence

from .core import (FiniteEffectAlgebra, homomorphisms, is_homomorphism,
                   preserves_existing_joins)
from .mv import is_mv_state_morphism, mv_state_axioms
from .states import StatePolytope
from .states import is_state  # noqa: F401  unused here; perfbench/tracing.py wraps this attribute
from .structure import check_rdp, classify_lattice


def is_endomorphism(E: FiniteEffectAlgebra, mapping: Sequence[int]) -> bool:
    """Does the self-map keep 0, 1 and every defined sum?"""
    return is_homomorphism(E, E, mapping)


def compose(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(outer.__getitem__, inner))


def minimal_potency(mapping: Sequence[int]) -> Optional[int]:
    """Least n >= 2 with mapping^n == mapping, or None if no power returns.

    Read off the cycles: mapping^n = mapping with n >= 2 makes mapping^(n-1)
    fix every image point, so the mapping permutes its image; and if it does,
    with order r there, mapping^n = mapping exactly when r divides n - 1.  The
    least n is then 1 + the lcm of the cycle lengths on the image.  A map that
    fixes its image is idempotent, potency 2, and needs no walk.
    """
    m = tuple(mapping)
    image = tuple(set(m))
    moved = tuple(map(m.__getitem__, image))
    if moved == image:
        return 2
    if len(set(moved)) < len(image):
        return None
    order, seen = 1, set()
    for x in image:
        if x not in seen:
            length = 0
            while x not in seen:
                seen.add(x)
                x = m[x]
                length += 1
            order = lcm(order, length)
    return order + 1


def is_n_potent(potency: Optional[int], n: int) -> bool:
    """Is a map with ``minimal_potency`` ``potency`` n-potent, mapping^n == mapping?

    n-potency is defined for n >= 2 (mapping^1 == mapping holds for every map);
    below that the answer is False.  With p the least such power, the powers
    from the map on repeat with period p - 1, so mapping^n == mapping exactly
    when n - 1 is a multiple of p - 1; no power returns when p is None.
    """
    return n >= 2 and potency is not None and (n - 1) % (potency - 1) == 0


def kernel(E: FiniteEffectAlgebra, mapping: Sequence[int]) -> tuple[int, ...]:
    return tuple(itertools.compress(range(E.n), map(not_, mapping)))


def enumerate_endomorphisms(E: FiniteEffectAlgebra,
                            guard_nodes: int = 2_000_000) -> list[tuple[int, ...]]:
    """All endomorphisms, sorted; ``core.homomorphisms`` does the search."""
    return sorted(homomorphisms(E, E, guard_nodes=guard_nodes))


@dataclass(frozen=True, slots=True)
class OperatorProfile:
    mapping: tuple[int, ...]
    is_state_operator: bool          # tau^2 = tau
    minimal_potency: Optional[int]   # least n >= 2 with tau^n = tau
    is_strong: bool
    is_state_morphism: bool
    is_faithful: bool
    kernel: tuple[int, ...]
    has_esp: bool

    def to_dict(self) -> dict:
        return {
            "map": list(self.mapping),
            "classification": {
                "is_state_operator": self.is_state_operator,
                "minimal_potency": self.minimal_potency,
                "is_strong": self.is_strong,
                "is_state_morphism": self.is_state_morphism,
                "is_faithful": self.is_faithful,
                "kernel": list(self.kernel),
                "has_esp": self.has_esp,
            },
        }


def is_strong_operator(E: FiniteEffectAlgebra, mapping: Sequence[int]) -> bool:
    """tau(tau(a) v tau(b)) = tau(a) v tau(b) whenever that join exists; the
    symmetric join table is read once per unordered pair of image elements."""
    join = E.order.join
    for ta, tb in itertools.combinations_with_replacement(set(mapping), 2):
        j = join[ta][tb]
        if j is not None and mapping[j] != j:
            return False
    return True


def check_esp(mapping: Sequence[int], P: StatePolytope) -> bool:
    """Extremal-state preservation: s o tau lands on a vertex for every vertex s.

    Vacuously true when there are no states at all.
    """
    return P.vertex_map(mapping) is not None


def classify_operator(E: FiniteEffectAlgebra, mapping: Sequence[int],
                      P: StatePolytope) -> OperatorProfile:
    """Every class of an endomorphism, decided here and nowhere else.

    Only an idempotent can be strong (the join of tau(a) with itself is
    tau(a)), so the strong test runs on idempotents alone.
    """
    m = tuple(mapping)
    if not is_endomorphism(E, m):
        raise ValueError("not an endomorphism; classification undefined")
    potency = minimal_potency(m)
    idem = potency == 2
    ker = kernel(E, m)
    return OperatorProfile(
        mapping=m,
        is_state_operator=idem,
        minimal_potency=potency,
        is_strong=idem and is_strong_operator(E, m),
        is_state_morphism=idem and preserves_existing_joins(E, E, m),
        is_faithful=ker == (0,),
        kernel=ker,
        has_esp=check_esp(m, P),
    )


@dataclass(frozen=True, slots=True)
class InducedStateMap:
    """Precomposition with an endomorphism tau, restricted to the polytope vertices.

    The map s -> s o tau is linear in s, so its images at the vertices fix it on
    the whole polytope: sum_i w_i v_i goes to sum_i w_i (v_i o tau).  The record
    holds ints only: tau and the polytope's integer vertices fix every image, and
    ``vertex_images`` builds the Fraction tuples from them on each read.
    """

    mapping: tuple[int, ...]
    polytope: StatePolytope
    vertex_to_vertex: Optional[tuple[int, ...]]   # set when every image is a vertex
    potency: Optional[int]                        # the minimal potency of tau

    @property
    def vertex_images(self) -> tuple[tuple[Fraction, ...], ...]:
        """v o tau for every vertex v of the polytope, in vertex order."""
        scale = self.polytope.scale
        return tuple(tuple(Fraction(iv[x], scale) for x in self.mapping)
                     for iv in self.polytope.int_vertices)


def induced_state_map(E: FiniteEffectAlgebra, mapping: Sequence[int],
                      P: StatePolytope) -> InducedStateMap:
    """The map s -> s o tau on the state polytope of E; tau must be an endomorphism.

    That precondition is the whole contract.  An endomorphism keeps 0, 1 and
    every defined sum, so s o tau is a state for every state s, and the map
    sends the polytope into itself.  If tau^n = tau then (s o tau) o tau^(n-1)
    = s o tau^n = s o tau, so the induced map is n-potent whenever tau is.
    The value set of s o tau lies inside that of s.  None of this needs a
    check once tau is known to be an endomorphism.
    """
    m = tuple(mapping)
    if not is_endomorphism(E, m):
        raise ValueError("not an endomorphism; the induced state map is undefined")
    return InducedStateMap(mapping=m, polytope=P, vertex_to_vertex=P.vertex_map(m),
                           potency=minimal_potency(m))


def coordinate_repeat_maps(E: FiniteEffectAlgebra) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For a square product F x F: (a,b) -> (a,a) and (a,b) -> (b,b)."""
    tuples = E.meta.get("tuples")
    sizes = E.meta.get("factor_sizes")
    if not tuples or not sizes or len(sizes) != 2 or sizes[0] != sizes[1]:
        raise ValueError("needs a product of two identical factors")
    index = {t: i for i, t in enumerate(tuples)}
    tau1 = tuple(index[(a, a)] for (a, _b) in tuples)
    tau2 = tuple(index[(b, b)] for (_a, b) in tuples)
    return tau1, tau2


def mv_operator_agreement(A, mapping, P: StatePolytope) -> dict:
    """One map, both readings: MV internal-state axioms vs effect-side classes.

    The effect-side classes are ``classify_operator``'s; a map that is not an
    endomorphism is in none of them and has no ESP verdict.
    """
    m = tuple(mapping)
    axioms = mv_state_axioms(A, m)
    endo = is_endomorphism(A.base, m)
    prof = classify_operator(A.base, m, P) if endo else None
    return {
        "axioms": axioms,
        "mv_state_operator": all(axioms.values()),
        "is_endomorphism": endo,
        "strong_state_operator": endo and prof.is_strong,
        "mv_state_morphism": is_mv_state_morphism(A, m),
        "state_morphism": endo and prof.is_state_morphism,
        "esp": prof.has_esp if endo else None,
    }


def scan_mv_operator_agreement(A, P: StatePolytope) -> dict:
    """Both readings of an internal state agree on every self-map of an MV algebra.

    Asserts, map by map through ``mv_operator_agreement``, that the MV
    internal-state axioms hold exactly when the map is a strong state-operator
    of the underlying effect algebra, and that MV state-morphisms (idempotent
    MV endomorphisms) are exactly the join-preserving idempotent effect
    endomorphisms; counts those that preserve extremal states.

    Both readings require tau(x*) = tau(x)*: on the MV side it is axiom (2),
    on the effect side an endomorphism preserves complements.  A map that
    breaks it fails every reading, so the readings agree there without a test,
    and the scan walks only the star-equivariant maps: for each star orbit
    {x, x*} with x < x*, tau(x) is any element and tau(x*) its star; a fixed
    point of star goes to a fixed point.  Nothing is pinned: a map that moves 0
    fails MV axiom (1) and, moving 1 with it, the effect-side tau(1) = 1.
    """
    star = A.star
    n = len(star)
    fixed = [x for x in range(n) if x == star[x]]
    reps = [x for x in range(n) if x <= star[x]]     # one element of each orbit
    stats = dict.fromkeys(("scanned", "endomorphisms", "mv_state_operators",
                           "state_morphisms", "esp_confirmed"), 0)
    for images in itertools.product(*(range(n) if x < star[x] else fixed for x in reps)):
        m = [0] * n
        for x, y in zip(reps, images):
            m[x], m[star[x]] = y, star[y]
        rep = mv_operator_agreement(A, m, P)
        if rep["mv_state_operator"] != rep["strong_state_operator"]:
            raise AssertionError(f"state-operator readings disagree at {m}")
        if rep["mv_state_morphism"] != rep["state_morphism"]:
            raise AssertionError(f"state-morphism readings disagree at {m}")
        stats["scanned"] += 1
        stats["endomorphisms"] += rep["is_endomorphism"]
        stats["mv_state_operators"] += rep["mv_state_operator"]
        stats["state_morphisms"] += rep["state_morphism"]
        stats["esp_confirmed"] += rep["state_morphism"] and rep["esp"]
    return stats


@dataclass(frozen=True, slots=True)
class LawResult:
    applicable: bool
    holds: Optional[bool]


# Immutable, so every report shares them.
NOT_APPLICABLE = LawResult(False, None)
HOLDS = LawResult(True, True)


def operator_law_report(E: FiniteEffectAlgebra, mapping: Sequence[int]) -> dict:
    """Structural laws of an idempotent endomorphism tau, one verdict per law.

    Every law follows from the definitions, so the report only decides which
    laws apply: an applicable law is ``HOLDS``, any other ``NOT_APPLICABLE``.
    The proofs use three facts: tau is monotone, sums cancel (a + c = a + d
    gives c = d), and tau(tau(a)) = tau(a).  Write a <= b as b = a + c.
    - ``image_is_fixed_point_set``: tau fixes its image, and a fixed point is
      its own image.
    - ``image_is_subalgebra``: tau keeps 0, 1 and complements, and for image
      points a + b = tau(a) + tau(b) = tau(a + b) wherever a + b is defined.
    - ``strong_joins_land_in_image`` (strong tau): the join of two image
      points is fixed, which is the loop of ``is_strong_operator``.
    - ``strong_fixes_image_meets`` (strong tau): a ^ b = (a' v b')', and a', b'
      are image points too, so their join is fixed and so is its complement.
    - ``image_inherits_rdp`` (E has RDP): apply tau to a refinement in E of
      x1 + x2 = y1 + y2 with all four in the image; tau fixes them.
    - ``faithful_strictly_monotone`` (kernel (0,)): if tau(a) = tau(b) then
      tau(a) + tau(c) = tau(a), so tau(c) = 0 and c = 0.
    - ``faithful_fixed_or_incomparable`` (kernel (0,)): if tau(a) <= a, write
      a = tau(a) + c; then tau(a) = tau(a) + tau(c), so c = 0.  The case
      a <= tau(a) is the same with tau(a) = a + c.
    - ``faithful_implies_strong`` (kernel (0,)): j = tau(a) v tau(b) lies
      below tau(j), since tau(a) = tau(tau(a)) <= tau(j) and likewise for b,
      so the previous law fixes j.
    - ``linear_faithful_identity`` (faithful tau on a chain): every tau(a) is
      comparable with a, so the previous law fixes a.  A chain is exactly
      lattice class "both": every pair has a meet, and no incomparable pair
      does.
    - ``antilattice_preserves_joins_meets`` (E an antilattice): only
      comparable pairs have joins, a v b = b for a <= b, and tau(a) <= tau(b);
      meets follow, as complements are kept.  A finite antilattice is a chain
      (``classify_lattice``), so this applies on class "both", like the
      previous law.
    The informational ``all_meets_preserved_info`` records whether tau keeps
    every existing meet (equivalently, every existing join); nothing asserts it.
    The lattice class and RDP are E's own, read once per algebra.
    """
    m = tuple(mapping)
    if not is_endomorphism(E, m) or compose(m, m) != m:
        raise ValueError("law report expects an idempotent endomorphism")
    strong = is_strong_operator(E, m)
    faithful = kernel(E, m) == (0,)
    lattice = E.verdict(classify_lattice)

    def law(applies: bool) -> LawResult:
        return HOLDS if applies else NOT_APPLICABLE

    return {
        "image_is_fixed_point_set": HOLDS,
        "image_is_subalgebra": HOLDS,
        "strong_joins_land_in_image": law(strong),
        "strong_fixes_image_meets": law(strong),
        "image_inherits_rdp": law(E.verdict(check_rdp)[0]),
        "faithful_strictly_monotone": law(faithful),
        "faithful_fixed_or_incomparable": law(faithful),
        "faithful_implies_strong": law(faithful),
        "linear_faithful_identity": law(faithful and lattice == "both"),
        "antilattice_preserves_joins_meets": law(lattice == "both"),
        "all_meets_preserved_info": LawResult(True, preserves_existing_joins(E, E, m)),
    }
