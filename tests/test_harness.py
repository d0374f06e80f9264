import json
import random
from itertools import combinations
from math import factorial

import pytest

from edgeideals import (Campaign, Graph, InputError, all_induced_dlq,
                        cycle_graph, delete_vertices,
                        has_dual_linear_quotients, run_campaign, run_fixture,
                        CLAIM_STATEMENTS, FIXTURE_IDS)
from edgeideals.graphs import _canonical
from edgeideals.harness import _classes, _random_adj, _random_subset, _shrink
from oracles import (HYPOTHESES_ON_GRAPHS, all_induced_dlq_labelled, burnside_class_count,
                     canonical_by_all_relabellings, graph_pair, necessary_scm_by_full_scan,
                     tip_induced_dlq_by_enumeration)


@pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
def test_fixtures_pass(fixture_id):
    result = run_fixture(fixture_id)
    assert result.passed, result.to_text()


def test_fixture_unknown_id():
    with pytest.raises(InputError):
        run_fixture("EX9.9")


def test_campaign_validation():
    with pytest.raises(InputError):
        Campaign("T9.9")
    with pytest.raises(InputError):
        Campaign("T3.2", trials=0)
    # trial seeds seed * 1_000_003 + index would collide across seeds
    with pytest.raises(InputError):
        Campaign("T3.2", trials=1_000_003)
    assert Campaign("T3.2", trials=1_000_002).trials == 1_000_002
    for claim in ("T3.2", "T3.7"):
        with pytest.raises(InputError):
            Campaign(claim, max_n=0)
    assert Campaign("T3.2", max_n=1).max_n == 1


def test_campaign_refuses_max_n_below_its_sampler_minimum():
    # the five-cycle sampler needs 5 vertices and the bad-cycle sampler 4;
    # a smaller max_n would be reported while larger graphs were drawn
    for claim, minimum in (("T3.3", 5), ("C4.2", 4)):
        with pytest.raises(InputError, match=f"max_n must be >= {minimum} for {claim}"):
            Campaign(claim, trials=3, max_n=minimum - 1)
        assert Campaign(claim, max_n=minimum).max_n == minimum
    with pytest.raises(InputError, match="max_n must be >= 4 for C4.2"):
        Campaign("C4.2", trials=3, max_n=2)
    for claim in sorted(set(CLAIM_STATEMENTS) - {"T3.3", "C4.2"}):
        assert Campaign(claim, max_n=1).max_n == 1


def test_counterexample_reruns_a_cm_claim_with_is_cm(monkeypatch):
    # C3.6 concludes Cohen-Macaulayness, so its failure reproduces under is-cm
    import edgeideals.harness
    sampler, hypothesis, _ = edgeideals.harness._CLAIMS["C3.6"]
    monkeypatch.setitem(edgeideals.harness._CLAIMS, "C3.6",
                        (sampler, hypothesis, lambda G, S, fields, held: (False, "forced")))
    report = run_campaign(Campaign("C3.6", trials=1, max_n=4, seed=1))
    assert report.failed == 1
    assert report.failures[0]["rerun"].startswith("edgeideals is-cm GRAPH_FILE")
    report = run_campaign(Campaign("C3.5", trials=1, max_n=4, seed=1))
    assert report.ok


@pytest.mark.parametrize("claim", sorted(set(CLAIM_STATEMENTS) - {"T3.7"}))
def test_small_campaigns_pass(claim):
    report = run_campaign(Campaign(claim, trials=8, max_n=6, seed=42))
    assert report.ok, report.to_text()
    assert report.passed + report.skipped == 8


def test_t37_micro_exhaustive():
    report = run_campaign(Campaign("T3.7", trials=1, max_n=3, seed=0))
    assert report.ok
    # all graphs on up to three vertices, times all subsets
    assert report.passed == 1 * 2 + 2 * 4 + 8 * 8


def test_reports_reproducible():
    a = run_campaign(Campaign("T3.2", trials=10, max_n=6, seed=9))
    b = run_campaign(Campaign("T3.2", trials=10, max_n=6, seed=9))
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_report_text_and_json_shape():
    r = run_campaign(Campaign("C3.6", trials=5, max_n=4, seed=1))
    data = r.to_json()
    assert data["claim"] == "C3.6" and data["failed"] == 0
    assert "RESULT: PASS" in r.to_text()


def test_t41_conclusion_searches_each_graph_once_for_all_fields(monkeypatch):
    import edgeideals.decide
    from edgeideals import GF2, GF3, QQ, add_whiskers
    from edgeideals.harness import _CLAIMS, _trial_rng
    campaign = Campaign("T4.1", trials=1, seed=3, fields=(GF2, GF3, QQ))
    searched = []
    real = edgeideals.decide.has_dual_linear_quotients
    monkeypatch.setattr(edgeideals.decide, "has_dual_linear_quotients",
                        lambda G, **kw: searched.append(G.adj) or real(G, **kw))
    # replay the trial's rejection sampling to count the hypothesis's searches
    sampler, hypothesis, _ = _CLAIMS["T4.1"]
    rng = _trial_rng(campaign, 0)
    while True:
        adj, smask = sampler(rng, campaign.max_n)
        if hypothesis(adj, smask):
            break
    G, S = graph_pair(adj, smask)
    sampling = searched[:]
    searched.clear()
    assert run_campaign(campaign).passed == 1
    # the hypothesis searched the remainder last and kept its report, so
    # the conclusion searches only the whiskered graph
    assert sampling[-1] == delete_vertices(G, S).adj
    assert searched == sampling + [add_whiskers(G, S)[0].adj]


def test_t41_rejected_draws_build_nothing(monkeypatch):
    # a 30-trial T4.1 campaign: no sampler call builds a Graph or an ideal,
    # a hypothesis builds only when it reaches the dual search, and each
    # accepted pair is built once, as one Graph, before its conclusion
    import edgeideals.decide
    import edgeideals.harness
    from edgeideals import GF2, GF3, QQ, MonomialIdeal
    built = []
    searched = []

    def counted(name, method):
        real = getattr(method, "__func__", method)

        def wrapper(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)
        return wrapper

    for cls, name, wrap in ((Graph, "__init__", None), (Graph, "_from_adj", classmethod),
                            (MonomialIdeal, "_from_canonical", classmethod)):
        method = counted(f"{cls.__name__}.{name}", getattr(cls, name))
        monkeypatch.setattr(cls, name, wrap(method) if wrap else method)
    real_search = edgeideals.decide.has_dual_linear_quotients
    monkeypatch.setattr(edgeideals.decide, "has_dual_linear_quotients",
                        lambda G, **kw: searched.append(G.adj) or real_search(G, **kw))
    sampler, hypothesis, conclusion = edgeideals.harness._CLAIMS["T4.1"]
    draws = []  # per draw: (built by the sampler, built by the hypothesis, searched)
    marks = {}

    def count_sampler(*args):
        marks["draw"] = len(built)
        return sampler(*args)

    def count_hypothesis(*args):
        mark, searches = len(built), len(searched)
        held = hypothesis(*args)
        draws.append((built[marks["draw"]:mark], built[mark:], len(searched) > searches))
        marks["accepted"] = len(built)
        return held

    def count_conclusion(*args):
        accepted.append(built[marks["accepted"]:])
        return conclusion(*args)

    accepted = []  # per accepted pair: built after its hypothesis, before its conclusion
    monkeypatch.setitem(edgeideals.harness._CLAIMS, "T4.1",
                        (count_sampler, count_hypothesis, count_conclusion))
    report = run_campaign(Campaign("T4.1", trials=30, seed=2026, fields=(GF2, GF3, QQ)))
    assert report.passed == 30
    assert all(by_sampler == [] for by_sampler, _, _ in draws)
    assert all(by_hypothesis == [] for _, by_hypothesis, reached in draws if not reached)
    assert accepted == [["Graph._from_adj"]] * 30
    reached = sum(reached for _, _, reached in draws)
    assert 30 <= reached < len(draws) // 10


def _draw_masks(draw):
    """A sampler's draw as (n, adjacency tuple, S-mask), whether it names
    its graph and S as masks or as a Graph and a vertex set."""
    graph, s = draw
    adj = tuple(getattr(graph, "adj", graph))
    return len(adj), adj, s if isinstance(s, int) else sum(1 << v for v in s)


def test_sampler_draws_pinned():
    # 500 draws of each sampler at four sizes, then the next rng.random():
    # the hash pins every draw and the rng calls each sampler makes
    import hashlib
    from edgeideals import harness
    digest = hashlib.sha256()
    for name in ("_sample_plain", "_sample_cover_biased", "_sample_near_all", "_sample_all",
                 "_sample_five_cycle", "_sample_bad_cycle"):
        sample = getattr(harness, name)
        for max_n in (5, 7, 9, 12):
            rng = random.Random(f"{name}-{max_n}")
            for _ in range(500):
                digest.update(json.dumps(_draw_masks(sample(rng, max_n))).encode())
            digest.update(repr(rng.random()).encode())
    assert digest.hexdigest() == SAMPLER_DRAWS_SHA256


SAMPLER_DRAWS_SHA256 = "0e259e4ed4fff10f19ca3e9aad269902fa0e2b99b7c72310f8e594110064c5f1"


@pytest.mark.parametrize("claim", sorted(HYPOTHESES_ON_GRAPHS))
def test_mask_hypothesis_matches_the_graph_hypothesis(claim):
    # 3 000 draws of the claim's own sampler, read on masks and on the
    # Graph and vertex set built from them
    from edgeideals.harness import _CLAIMS
    sampler, hypothesis, _ = _CLAIMS[claim]
    oracle = HYPOTHESES_ON_GRAPHS[claim]
    rng = random.Random(f"hypothesis-{claim}")
    held = 0
    for _ in range(3000):
        adj, smask = sampler(rng, 7)
        got = bool(hypothesis(adj, smask))
        assert got == oracle(*graph_pair(adj, smask)), (claim, adj, smask)
        held += got
    assert 0 < held


def test_t41_hypothesis_matches_on_every_small_pair():
    # all 33 867 labelled (G, S) with at most five vertices; a kept report
    # is the remainder's, whose GF(2) scan finds a witness, which the full
    # homology scan of the remainder's dual confirms
    from edgeideals import GF2
    from edgeideals.harness import _CLAIMS
    _, hypothesis, _ = _CLAIMS["T4.1"]
    oracle = HYPOTHESES_ON_GRAPHS["T4.1"]
    scans = {}
    pairs = held = 0
    for G, S in _every_labelled_pair(5):
        pairs += 1
        report = hypothesis(G.adj, G._check_vertices(S))
        assert bool(report) == oracle(G, S), (G, S)
        H = delete_vertices(G, sorted(S))
        if H.adj not in scans:
            scans[H.adj] = necessary_scm_by_full_scan(H, frozenset(), GF2) is not None
        assert bool(report) == scans[H.adj], (G, S)
        if report:
            assert report.graph.adj == H.adj
            held += 1
    assert pairs == 33_867 and held > 0


def test_all_induced_dlq_small():
    # a path: every induced subgraph is a forest
    assert all_induced_dlq(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    # C4 itself fails, so the property fails
    assert not all_induced_dlq(cycle_graph(4))
    # C5 has it: proper subgraphs are forests and C5 itself is fine
    assert all_induced_dlq(cycle_graph(5))
    assert not all_induced_dlq(cycle_graph(6))


def test_all_induced_dlq_matches_direct_enumeration():
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4)])
    memo = {}
    got = all_induced_dlq(G, memo)
    direct = True
    for mask in range(1 << G.n):
        keep = [v for v in range(G.n) if mask >> v & 1]
        sub = delete_vertices(G, [v for v in range(G.n) if v not in keep])
        if not has_dual_linear_quotients(sub).verdict:
            direct = False
            break
    assert got == direct is False  # the induced four-cycle spoils it


def test_tip_equivalence_counterexample_to_naive_reading():
    # the unrestricted two-sided reading fails here; the tip-restricted
    # equivalence is what the sweep checks
    G = cycle_graph(4)
    S = frozenset({0})
    assert all_induced_dlq(delete_vertices(G, S))
    assert all_induced_dlq(G, S=S)
    assert not all_induced_dlq(G)


def test_whiskered_side_matches_the_enumeration():
    # the recursion drops isolated tips; the oracle keeps every tip in each
    # of the 2^n subgraphs it checks
    rng = random.Random(71)
    memo = {}
    seen = set()
    for _ in range(60):
        n = rng.randint(3, 6)
        G = graph_pair(_random_adj(rng, n, 0.5), 0)[0]
        S = frozenset(v for v in range(n) if rng.random() < 0.3)
        got = all_induced_dlq(G, memo, S=S)
        assert got == tip_induced_dlq_by_enumeration(G, S), (G, S)
        seen.add(got)
    assert seen == {True, False}


def test_shrink_produces_minimal_failure():
    # synthetic claim: "every graph has fewer than three vertices"; shrinking
    # a large failure must land on exactly three
    def hyp(adj, smask):
        return True

    def concl(G, S, fields, held):
        return (G.n < 3, "too big")

    G = cycle_graph(6)
    S = frozenset({0, 1})
    G2, S2 = _shrink(hyp, concl, G, S, ())
    assert G2.n == 3 and not concl(G2, S2, (), True)[0]


def test_graph_key_reindexes():
    # the sweep's memo keys are adjacency tuples of reindexed subgraphs
    G = Graph(4, [(1, 2), (2, 3)])
    H = delete_vertices(G, [0])
    assert H.adj == Graph(3, [(0, 1), (1, 2)]).adj == (0b010, 0b101, 0b010)


def test_shrink_skips_input_errors_but_propagates_defects():
    def hyp(adj, smask):
        return True

    def concl_input_error(G, S, fields, held):
        if G.n < 6:
            raise InputError("not decidable here")
        return (False, "fails")

    G = cycle_graph(6)
    G2, _ = _shrink(hyp, concl_input_error, G, frozenset(), ())
    assert G2 is G  # every deletion raised InputError and was skipped

    def concl_defect(G, S, fields, held):
        if G.n < 6:
            raise RuntimeError("defect while shrinking")
        return (False, "fails")

    with pytest.raises(RuntimeError):
        _shrink(hyp, concl_defect, G, frozenset(), ())


def test_dlq_memo_refuses_an_undecided_verdict(monkeypatch):
    # C4's degree-2 component needs the order search; with no budget left
    # its verdict is undecided, which must raise rather than memoise a None
    # that the sweep would read as False
    import edgeideals.harness
    from edgeideals import SearchBudgetExceeded
    monkeypatch.setattr(edgeideals.harness, "DEFAULT_SEARCH_BUDGET", 0)
    memo = {}
    with pytest.raises(SearchBudgetExceeded):
        all_induced_dlq(cycle_graph(4), memo)
    assert memo and None not in memo.values()
    monkeypatch.undo()
    assert all_induced_dlq(cycle_graph(4), memo) is False


def test_sweep_builds_no_subgraph_or_whiskered_graph(monkeypatch):
    # the recursion reindexes adjacency tuples itself and checks each
    # whiskered graph's dual on masks: neither graph builder may be reached
    # from the T3.7 sweep, and a --max-n 4 sweep builds no Graph, order or
    # report, and an ideal only for each GF(2) witness scan of a refutation
    import edgeideals.harness
    import edgeideals.quotients
    from edgeideals import DLQReport, MonomialIdeal, QuotientOrder
    from edgeideals.quotients import search_stats

    def refuse(*args, **kwargs):
        raise AssertionError("graph builder called inside the sweep")

    monkeypatch.setattr(edgeideals.harness, "delete_vertices", refuse)
    monkeypatch.setattr(edgeideals.harness, "add_whiskers", refuse)
    built = []

    def counted(name, method):
        real = getattr(method, "__func__", method)

        def wrapper(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)
        return wrapper

    for cls, name, wrap in ((Graph, "__init__", None), (Graph, "_from_adj", classmethod),
                            (MonomialIdeal, "__init__", None),
                            (MonomialIdeal, "_from_canonical", classmethod),
                            (QuotientOrder, "__init__", None), (DLQReport, "__init__", None)):
        method = counted(f"{cls.__name__}.{name}", getattr(cls, name))
        monkeypatch.setattr(cls, name, wrap(method) if wrap else method)
    scan = edgeideals.quotients.nonlinear_witness
    monkeypatch.setattr(edgeideals.quotients, "nonlinear_witness",
                        lambda *args: built.append("scan") or scan(*args))
    refuted = search_stats["refuted"]
    report = run_campaign(Campaign("T3.7", max_n=4))
    assert report.failed == 0 and report.passed == 2 + 4 * 2 + 8 * 8 + 64 * 16  # (G, S) pairs
    assert search_stats["refuted"] - refuted == 1
    assert built == ["MonomialIdeal._from_canonical", "scan"]


def _every_labelled_pair(max_n):
    for n in range(max_n + 1):
        slots = list(combinations(range(n), 2))
        for bits in range(1 << len(slots)):
            G = Graph(n, [e for i, e in enumerate(slots) if bits >> i & 1])
            for smask in range(1 << n):
                yield G, frozenset(v for v in range(n) if smask >> v & 1)


def _random_pair(rng, n):
    return graph_pair(_random_adj(rng, n, rng.choice([0.2, 0.4, 0.6])), _random_subset(rng, n))


def _relabel(G, S, perm):
    return (Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()]),
            frozenset(perm[v] for v in S))


def test_all_induced_dlq_matches_the_labelled_recursion():
    # the canonical memo against one memo entry per labelled pair, on every
    # (G, S) with at most four vertices and on random ones with 5-7
    rng = random.Random(73)
    pairs = list(_every_labelled_pair(4))
    pairs += [_random_pair(rng, rng.randint(5, 7)) for _ in range(40)]
    memo, labelled = {}, {}
    seen = set()
    for G, S in pairs:
        got = all_induced_dlq(G, memo, S=S)
        assert got == all_induced_dlq_labelled(G, S, labelled), (G, S)
        seen.add(got)
    assert seen == {True, False}
    assert len(memo) < len(labelled)


def test_canonical_form_is_the_least_relabelling():
    rng = random.Random(79)
    pairs = list(_every_labelled_pair(4))
    pairs += [_random_pair(rng, rng.randint(5, 6)) for _ in range(300)]
    for G, S in pairs:
        assert _canonical(G.adj, G._check_vertices(S)) == \
            canonical_by_all_relabellings(G, S), (G, S)
    for _ in range(50):
        G, S = _random_pair(rng, 7)
        perm = list(range(7))
        rng.shuffle(perm)
        H, T = _relabel(G, S, perm)
        assert _canonical(H.adj, H._check_vertices(T)) == _canonical(G.adj, G._check_vertices(S))


def test_class_counts_match_burnside():
    for n, classes in _classes(6):
        assert len(classes) == burnside_class_count(n)
        assert sum(factorial(n) // aut for aut in classes.values()) == 2 ** (n * (n + 1) // 2)
        assert all(_canonical(adj, smask) == (adj, smask, aut)
                   for (adj, smask), aut in classes.items())


def test_t37_exhaustive_through_six_vertices():
    report = run_campaign(Campaign("T3.7", max_n=6))
    assert report.failed == 0, report.to_text()
    assert report.passed == 2_131_018  # every labelled (G, S) with up to six vertices
    assert report.order_search_stats == {"identity": 11_583, "structural": 1_014, "greedy": 44,
                                         "backtracked": 0, "exhausted": 0, "refuted": 2}


def test_t37_sweeps_through_six_vertices_at_most(monkeypatch):
    import edgeideals.harness
    limits = []
    monkeypatch.setattr(edgeideals.harness, "_classes",
                        lambda limit: limits.append(limit) or iter(()))
    for max_n in (4, 6, 7, 20):
        run_campaign(Campaign("T3.7", max_n=max_n))
    assert limits == [4, 6, 6, 6]


def test_t37_computes_no_canonical_form_of_a_class_representative(monkeypatch):
    # _classes yields canonical forms, so the sweep seeds them into its map
    # of canonical forms; through five vertices the recursion computes 142
    # forms, all of them of deletions
    import sys
    import edgeideals.harness
    reps = {key for _, classes in _classes(5) for key in classes}
    inputs = []

    def spy(adj, smask):
        if sys._getframe(1).f_code.co_name == "_all_induced_dlq":
            inputs.append((adj, smask))
        return _canonical(adj, smask)

    monkeypatch.setattr(edgeideals.harness, "_canonical", spy)
    report = run_campaign(Campaign("T3.7", max_n=5))
    assert (report.passed, report.failed) == (33_866, 0)
    assert len(inputs) == 142 and not reps.intersection(inputs)


def test_t37_refuses_classes_short_of_the_labelled_total(monkeypatch):
    # a class missing from the enumeration must raise, under -O as well
    import edgeideals.harness

    def short(limit):
        for n, classes in _classes(limit):
            if n == 3:
                classes = dict(list(classes.items())[1:])
            yield n, classes

    monkeypatch.setattr(edgeideals.harness, "_classes", short)
    with pytest.raises(AssertionError):
        run_campaign(Campaign("T3.7", max_n=3))


def test_t37_reports_a_failing_class_on_its_representative(monkeypatch):
    # with a whiskered side that differs from the remainder side exactly
    # when S is nonempty, each such class fails with its n!/|Aut| pairs
    import edgeideals.harness
    monkeypatch.setattr(edgeideals.harness, "_all_induced_dlq",
                        lambda adj, smask, memo, canon: bool(smask))
    report = run_campaign(Campaign("T3.7", max_n=2))
    assert (report.passed, report.failed) == (1 + 2, 1 + 6)
    # the classes of each n in ascending order of their canonical forms
    assert [f["trial"] for f in report.failures] == [2, 5, 6, 9, 10]
    assert [(f["graph"], f["whisker_at"]) for f in report.failures] == [
        ("1 0\n", [1]), ("2 0\n", [2]), ("2 0\n", [1, 2]),
        ("2 1\n1 2\n", [2]), ("2 1\n1 2\n", [1, 2])]
    assert report.failures[0]["rerun"] == "edgeideals is-scm GRAPH_FILE --whisker 1"
