"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every check here is exact (set/dict equality, zero failing trials); the
runtime ceilings come with the criteria.  Each test prints a single
PASS line so the suite output doubles as the acceptance report.
"""

import random
import time

from edgeideals import (GF2, Campaign, Graph, add_whiskers,
                        alexander_dual_of_edge_ideal, betti_from_quotient_order,
                        betti_numbers, cycle_graph, delete_vertices, find_order,
                        has_dual_linear_quotients, nonlinear_witness,
                        is_chordal, is_sequentially_cm, path_graph, run_campaign,
                        run_fixture, squarefree_degree_component, verify_order,
                        vertex_covers_of_size)
from edgeideals.decide import QuotientCertificates
from edgeideals.harness import ex43_pair

from oracles import permutation_order_exists


def _random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _report(number, name, started):
    print(f"ACCEPTANCE {number} {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_fixture_ex38():
    t0 = time.perf_counter()
    result = run_fixture("EX3.8")
    assert result.passed, result.to_text()
    assert result.observed["betti_gf2"] == {"0,4": 6, "1,5": 5, "1,6": 1, "2,7": 1}
    assert result.observed["betti_q"] == result.observed["betti_gf2"]
    assert time.perf_counter() - t0 < 1.0
    _report(1, "fixture EX3.8 dual and Betti table", t0)


def test_criterion_2_fixture_ex39():
    t0 = time.perf_counter()
    result = run_fixture("EX3.9")
    assert result.passed, result.to_text()
    assert time.perf_counter() - t0 < 1.0
    _report(2, "fixture EX3.9 listed order and SCM", t0)


def test_criterion_3_fixture_ex43():
    t0 = time.perf_counter()
    result = run_fixture("EX4.3")
    assert result.passed, result.to_text()
    assert result.observed["component3_betti"] == {"0,3": 3, "1,4": 1, "1,5": 1}
    assert time.perf_counter() - t0 < 1.0
    _report(3, "fixture EX4.3 dual, component table, non-SCM", t0)


def test_criterion_4_fixture_c5_order():
    t0 = time.perf_counter()
    result = run_fixture("C5-ORDER")
    assert result.passed, result.to_text()
    assert time.perf_counter() - t0 < 1.0
    _report(4, "fixture C5 order, SCM, Betti oracle agreement", t0)


def test_criterion_5_fixture_villarreal_edge():
    t0 = time.perf_counter()
    result = run_fixture("VILLARREAL-EDGE")
    assert result.passed, result.to_text()
    assert time.perf_counter() - t0 < 1.0
    _report(5, "fixture path whiskers: SCM vs CM", t0)


def test_criterion_6_campaigns_t32_t33():
    t0 = time.perf_counter()
    r32 = run_campaign(Campaign("T3.2", trials=200, max_n=7, seed=2026))
    assert r32.failed == 0, r32.to_text()
    assert r32.passed + r32.skipped == 200
    r33 = run_campaign(Campaign("T3.3", trials=100, max_n=7, seed=2026))
    assert r33.failed == 0, r33.to_text()
    assert r33.passed + r33.skipped == 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(6, f"campaigns T3.2 ({r32.passed} pass) and T3.3 ({r33.passed} pass)", t0)


def test_criterion_7_campaigns_c34_c35_c36_and_sharpness():
    t0 = time.perf_counter()
    for claim, kwargs in (("C3.4", {"max_n": 7}), ("C3.5", {"max_n": 7}),
                          ("C3.6", {"max_n": 6})):
        r = run_campaign(Campaign(claim, trials=100, seed=2026, **kwargs))
        assert r.failed == 0, r.to_text()
    # sharpness of the size bound: the pendant-cycle example whiskers
    # |V|-4 vertices and fails
    G, S = ex43_pair()
    assert len(S) == G.n - 4
    W, _ = add_whiskers(G, S)
    assert not is_sequentially_cm(W).value
    _report(7, "campaigns C3.4/C3.5/C3.6 plus size-bound sharpness", t0)


def test_criterion_8_campaign_t41_with_lifts():
    t0 = time.perf_counter()
    r = run_campaign(Campaign("T4.1", trials=100, max_n=7, seed=2026))
    assert r.failed == 0, r.to_text()
    assert r.passed >= 90  # rejection sampling may skip a few
    # the hypothesis settles edgeless, chordal and five-cycle remainders by
    # theorem and asks for dual linear quotients only of the others; the
    # conclusion scans the accepted remainder's report without a new search
    assert r.order_search_stats == {"identity": 96, "structural": 19, "greedy": 30,
                                    "backtracked": 0, "exhausted": 0, "refuted": 388}
    r42 = run_campaign(Campaign("C4.2", trials=100, max_n=7, seed=2026))
    assert r42.failed == 0, r42.to_text()
    _report(8, f"campaigns T4.1 ({r.passed} pass) and C4.2 ({r42.passed} pass)", t0)


def test_criterion_9_exhaustive_t37():
    t0 = time.perf_counter()
    r = run_campaign(Campaign("T3.7", trials=1, max_n=5, seed=0))
    assert r.failed == 0, r.to_text()
    assert r.passed == 33866  # all graphs with up to 5 vertices, all subsets
    # one dual check per isomorphism class of (G, S) whose deletions all pass
    assert r.order_search_stats == {"identity": 1129, "structural": 42, "greedy": 2,
                                    "backtracked": 0, "exhausted": 0, "refuted": 1}
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(9, "exhaustive equivalence sweep through five vertices", t0)


def test_criterion_10_property_suite():
    t0 = time.perf_counter()

    # betti oracle vs homology on every certified component from campaigns
    rng = random.Random(101)
    certified = 0
    for _ in range(80):
        n = rng.randint(1, 6)
        G = _random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        S = frozenset(v for v in range(n) if rng.random() < 0.5)
        if not is_chordal(delete_vertices(G, S)).chordal:
            continue
        W, _ = add_whiskers(G, S)
        v = is_sequentially_cm(W)
        assert v.value
        if isinstance(v.evidence, QuotientCertificates):
            # the verdict certifies degrees dmin..D; find_order completes
            # the components above D, up to the vertex count
            dual = alexander_dual_of_edge_ideal(W)
            assert sorted(v.evidence.per_degree) == list(range(dual.min_degree,
                                                               dual.max_degree + 1))
            above = [find_order(squarefree_degree_component(dual, d))
                     for d in range(dual.max_degree + 1, W.n + 1)]
            for q in [*v.evidence.per_degree.values(), *above]:
                assert verify_order(q)
                assert betti_from_quotient_order(q).totals == \
                    betti_numbers(q.ideal, GF2).totals
                certified += 1
    assert certified >= 200

    # whisker-cover decomposition identity on 500 random whiskered graphs
    rng = random.Random(202)
    done = 0
    while done < 500:
        n = rng.randint(1, 7)
        G = _random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        S = [v for v in range(n) if rng.random() < 0.5]
        W, wm = add_whiskers(G, S)
        if not wm.pairs:
            continue
        y, x = wm.pairs[-1]
        no_x = delete_vertices(W, [x])
        no_xy = delete_vertices(W, [x, y])
        lift = lambda c: frozenset(v if v < y else v + 1 for v in c)
        for d in range(W.n + 1):
            left = set(vertex_covers_of_size(W, d))
            right = {frozenset(c) | {x} for c in vertex_covers_of_size(no_x, d - 1)} | \
                    {lift(c) | {y} for c in vertex_covers_of_size(no_xy, d - 1)}
            assert left == right
        done += 1

    # linear quotients imply a linear resolution, 200 certified components
    rng = random.Random(303)
    confirmed = 0
    while confirmed < 200:
        n = rng.randint(1, 8)
        G = _random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        report = has_dual_linear_quotients(G)
        for q in report.certificates().values():
            assert nonlinear_witness(q.ideal, GF2) is None
            confirmed += 1

    # exact search against the permutation oracle, components of <= 9 gens
    rng = random.Random(404)
    graphs = [cycle_graph(k) for k in (3, 4, 5, 6)] + [path_graph(k) for k in (2, 4, 6)]
    graphs += [_random_graph(rng, rng.randint(2, 6), rng.choice([0.3, 0.5, 0.7]))
               for _ in range(40)]
    compared = 0
    for G in graphs:
        dual = alexander_dual_of_edge_ideal(G)
        if dual.is_zero:
            continue
        for d in range(dual.min_degree, G.n + 1):
            comp = squarefree_degree_component(dual, d)
            if len(comp.gens) > 9:
                continue
            got = find_order(comp)
            assert (got is not None) == \
                permutation_order_exists([frozenset(g.support) for g in comp.gens])
            compared += 1
    assert compared >= 60

    _report(10, f"property suite ({certified} certificates, 500 decompositions, "
                f"{confirmed} resolutions, {compared} oracle comparisons)", t0)
