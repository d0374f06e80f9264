"""Edge ideals of graphs: Alexander duality, linear quotients, and
sequentially Cohen-Macaulay / Cohen-Macaulay decisions with checkable
evidence, plus whisker constructions and a claim-verification harness.
"""

from .errors import InputError, SearchBudgetExceeded
from .graphs import (Graph, WhiskerMap, ChordalityResult, RemainderClass,
                     induced_subgraph, delete_vertices, add_whiskers, is_chordal,
                     classify_remainder, vertex_covers_of_size, minimal_vertex_covers,
                     is_unmixed, parse_graph, format_graph, cycle_graph, path_graph)
from .monomials import (Monomial, MonomialIdeal, edge_ideal,
                        alexander_dual_of_edge_ideal, squarefree_degree_component)
from .quotients import (QuotientOrder, DLQReport, make_order, verify_order, find_order,
                        has_dual_linear_quotients, whisker_order, betti_from_quotient_order)
from .homology import (FieldSpec, GF2, GF3, QQ, SimplicialComplex, BettiTable,
                       CWLReport, upper_koszul_complex, reduced_homology_ranks,
                       betti_numbers, betti_at,
                       nonlinear_witness, is_componentwise_linear)
from .decide import (Verdict, SyzygyWitness, TheoremHit, is_sequentially_cm, is_cm,
                     sufficient_scm, necessary_scm, check_koszul_lift, check_evidence)
from .harness import (Campaign, Report, FixtureResult, run_campaign, run_fixture,
                      all_induced_dlq, CLAIM_STATEMENTS, FIXTURE_IDS)

__version__ = "0.1.0"
