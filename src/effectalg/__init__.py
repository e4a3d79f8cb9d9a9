"""effectalg: finite effect algebras with internal states, exactly.

Core objects: partial sum tables (FiniteEffectAlgebra), validated when read
from outside, catalog constructions that are effect algebras by theorem (so
built unchecked), exact state polytopes with extremal-state enumeration,
endomorphism classification (state-operators and their strong / join-preserving
variants), interval algebras over concrete po-groups, and the potent vertex
maps of finite simplices, with the morphism checks on both sides of the
duality.  Sum and join preservation are defined once, for maps between
algebras (``is_homomorphism``, ``preserves_existing_joins``).
"""

from .catalog import (CatalogSpec, build_boolean, build_catalog, build_chain,
                      build_even_subsets, build_product, horizontal_sum,
                      small_catalog)
from .core import (AxiomViolation, EffectAlgebraError, FiniteEffectAlgebra,
                   GuardExceeded, derive_order, is_homomorphism, is_isomorphic,
                   preserves_existing_joins, validate_axioms)
from .duality import VertexMap, check_simplex_morphism, check_state_morphism
from .mv import MvStructure, mv_operations, mv_state_axioms
from .operators import (InducedStateMap, OperatorProfile, check_esp,
                        classify_operator, coordinate_repeat_maps,
                        enumerate_endomorphisms, induced_state_map,
                        is_endomorphism, minimal_potency, mv_operator_agreement,
                        operator_law_report, scan_mv_operator_agreement)
from .pogroup import (IntervalAlgebra, PoGroupSpec, extend_endomorphism,
                      extremal_states, group_leq, materialize)
from .states import (OrderingReport, StatePolytope, clan_closure_witness,
                     compute_states, is_order_determining, is_state,
                     sampled_order_report)
from .structure import (check_interpolation, check_rdp, classify_lattice,
                        enumerate_ideals)

__version__ = "0.1.0"
