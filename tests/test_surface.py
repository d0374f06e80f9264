import importlib
import types

import edgeideals

# The public names of ``edgeideals``: adding or dropping one is a deliberate
# change to this set.
PUBLIC = {
    "BettiTable", "CLAIM_STATEMENTS", "CWLReport", "Campaign", "ChordalityResult",
    "DLQReport", "FIXTURE_IDS", "FieldSpec", "FixtureResult", "GF2", "GF3", "Graph",
    "InputError", "Monomial", "MonomialIdeal", "QQ", "QuotientOrder", "RemainderClass",
    "Report", "SearchBudgetExceeded", "SimplicialComplex", "SyzygyWitness", "TheoremHit",
    "Verdict", "WhiskerMap", "add_whiskers", "alexander_dual_of_edge_ideal",
    "all_induced_dlq", "betti_at", "betti_from_quotient_order", "betti_numbers",
    "check_evidence", "check_koszul_lift", "classify_remainder", "cycle_graph",
    "delete_vertices", "edge_ideal", "find_order", "format_graph",
    "has_dual_linear_quotients", "induced_subgraph", "is_chordal", "is_cm",
    "is_componentwise_linear", "is_sequentially_cm", "is_unmixed", "make_order",
    "minimal_vertex_covers", "necessary_scm", "nonlinear_witness", "parse_graph",
    "path_graph", "reduced_homology_ranks", "run_campaign", "run_fixture",
    "squarefree_degree_component", "sufficient_scm", "upper_koszul_complex",
    "verify_order", "vertex_covers_of_size", "whisker_order",
}


def test_public_surface_is_pinned():
    names = {k for k, v in vars(edgeideals).items()
             if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == PUBLIC
    # every __all__ entry resolves, so ``from edgeideals.<module> import *`` works
    modules = ["cli"] + [k for k, v in vars(edgeideals).items() if isinstance(v, types.ModuleType)]
    with_all = set()
    for name in modules:
        mod = importlib.import_module(f"edgeideals.{name}")
        if hasattr(mod, "__all__"):
            with_all.add(name)
            for entry in mod.__all__:
                assert hasattr(mod, entry), (name, entry)
    assert with_all == {"decide", "graphs", "harness", "homology", "monomials", "quotients"}
