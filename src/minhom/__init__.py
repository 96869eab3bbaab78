"""Minimum cost homomorphism solving and target-digraph classification."""

from .birep import (BipartiteGraph, ForbiddenStructure, bg,
                    digraph_instance_from_bipartite, find_forbidden,
                    is_proper_interval_bigraph, lift_solution,
                    project_solution)
from .classify import (BGForbiddenWitness, Classification,
                       ReflexiveCycleWitness, Witness, build_theorem5_digraph,
                       classify_general, classify_reflexive_mpt,
                       classify_theorem5, classify_tournament_wpl,
                       enumerate_rmpt, find_witness, validate_witness)
from .digraph import (Digraph, GraphError, GuardExceeded, InternalError,
                      NotMultipartiteTournament, components, cycle_walk,
                      extend, is_acyclic, is_isomorphic, make_cycle,
                      make_oriented_kb, make_tt, make_tt_minus,
                      partite_structure)
from .io import (FormatError, format_bipartite, format_costs, format_digraph,
                 parse_bipartite, parse_costs, parse_digraph)
from .minmax import ArcPair, Ordering, find_minmax, verify_minmax
from .solver import (BudgetExceeded, CostMatrix, SolveResult,
                     collapse_extension, is_homomorphism, map_cost,
                     solve_auto, solve_bruteforce, solve_cycle, solve_minmax)

__all__ = [name for name in dir() if not name.startswith("_")]
