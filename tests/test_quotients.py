import random
from itertools import permutations

import pytest

from edgeideals import (Graph, InputError, Monomial, MonomialIdeal, QuotientOrder,
                        add_whiskers, alexander_dual_of_edge_ideal, cycle_graph,
                        delete_vertices, find_order,
                        has_dual_linear_quotients, induced_subgraph,
                        is_chordal, make_order, nonlinear_witness,
                        squarefree_degree_component, verify_order,
                        whisker_order)
from edgeideals.graphs import _bits, _default_labels, _mask_of
from edgeideals.quotients import (_OrderSearch, _colon_walk, _search_masks,
                                  reset_search_stats, search_stats)

from oracles import colon_steps_by_ideal, permutation_order_exists

M = Monomial


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def paper_order(ideal, sequence):
    pos = {frozenset(g.support): i for i, g in enumerate(ideal.gens)}
    return make_order(ideal, [pos[frozenset(s)] for s in sequence])


# ---------------------------------------------------------------------------
# verify_order


def test_c5_listed_order_verifies_with_colon_vars():
    dual = alexander_dual_of_edge_ideal(cycle_graph(5))
    q = paper_order(dual, [{0, 1, 3}, {0, 2, 3}, {0, 2, 4}, {1, 2, 4}, {1, 3, 4}])
    assert verify_order(q)
    assert q.colon_vars == (frozenset(), frozenset({1}), frozenset({3}),
                            frozenset({0}), frozenset({0, 2}))
    assert q.step_sizes() == [0, 1, 1, 1, 2]


def test_mixed_degree_listed_order_verifies():
    # whiskered second worked example: five degree-4 covers then one degree-5
    G = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4), (1, 5), (2, 5)])
    W, _ = add_whiskers(G, [5])
    dual = alexander_dual_of_edge_ideal(W)
    q = paper_order(dual, [{0, 2, 3, 5}, {1, 2, 3, 5}, {0, 2, 4, 5},
                           {1, 3, 4, 5}, {1, 2, 3, 6}, {0, 1, 2, 4, 6}])
    assert verify_order(q)


def test_disjoint_supports_fail_either_order():
    I = MonomialIdeal.from_generators(4, [M([0, 2]), M([1, 3])])
    assert not verify_order(make_order(I, [0, 1]))
    assert not verify_order(make_order(I, [1, 0]))


def test_verify_rejects_malformed():
    I = MonomialIdeal.from_generators(4, [M([0, 2]), M([1, 3])])
    q = make_order(I, [0, 1])
    assert q == QuotientOrder(4, (0b0101, 0b1010), (0, 0))
    a, b = q.gens
    malformed = [
        QuotientOrder(4, (a, a), q.colon),            # repeated generator
        QuotientOrder(4, (a, b), (0,)),               # colon list too short
        QuotientOrder(4, (a, b), (0, 0, 0)),          # colon list too long
        QuotientOrder(4, (a, b), (0, 1 << 4)),        # colon mask outside ambient
        QuotientOrder(4, (a, b | 1 << 4), (0, 0)),    # generator outside ambient
    ]
    for bad in malformed:
        with pytest.raises(InputError):
            verify_order(bad)


def test_degree_sorted_requirement():
    I = MonomialIdeal.from_generators(3, [M([0]), M([1, 2])])
    assert verify_order(make_order(I, [0, 1]))
    assert not verify_order(make_order(I, [1, 0]))


# ---------------------------------------------------------------------------
# the one-pass colon kernel


def _check_walk(ambient, seq):
    """Cross-check every step of _colon_walk against the colon-ideal oracle;
    returns whether the sequence is linear."""
    colon, failed = _colon_walk(seq)
    oracle = colon_steps_by_ideal(ambient, [list(_bits(m)) for m in seq])
    assert colon[0] == 0 and not failed & 1
    for i in range(1, len(seq)):
        linear, oracle_v1 = oracle[i - 1]
        assert (not failed >> i & 1) == linear
        assert colon[i] == _mask_of(oracle_v1)
    # stopping at the first failure keeps every earlier step and that bit only
    stop_colon, stop_failed = _colon_walk(seq, stop_at_failure=True)
    first = failed & -failed
    assert stop_failed == first
    upto = first.bit_length() if first else len(seq)
    assert stop_colon[:upto] == colon[:upto]
    return not failed


def _walk_cases(rng):
    graphs = [random_graph(rng, rng.randint(3, 10), rng.choice([0.15, 0.3, 0.45, 0.6]))
              for _ in range(14)]
    for _ in range(8):
        base = random_graph(rng, rng.randint(2, 5), 0.5)
        S = [v for v in range(base.n) if rng.random() < 0.8] or [0]
        graphs.append(add_whiskers(base, S)[0])
    return graphs


def test_colon_walk_matches_colon_oracle_on_components():
    rng = random.Random(71)
    outcomes = {True: 0, False: 0}
    for G in _walk_cases(rng):
        dual = alexander_dual_of_edge_ideal(G)
        if dual.is_zero:
            continue
        for d in range(dual.min_degree, G.n + 1):
            component = squarefree_degree_component(dual, d)
            assert MonomialIdeal(component.ambient, component.gens) == component
            masks = component.masks
            if len(masks) > 120:
                continue
            orders = [list(masks)] + [rng.sample(masks, len(masks)) for _ in range(3)]
            for seq in orders:
                outcomes[_check_walk(G.n, seq)] += 1
    assert outcomes[True] >= 40 and outcomes[False] >= 40


def test_colon_walk_matches_colon_oracle_on_mixed_degrees():
    rng = random.Random(73)
    outcomes = {True: 0, False: 0}
    mixed = 0
    for G in _walk_cases(rng):
        dual = alexander_dual_of_edge_ideal(G)
        masks = dual.masks
        if len(masks) < 2 or len(masks) > 60:
            continue
        mixed += not dual.is_equigenerated
        orders = [list(masks)] + [rng.sample(masks, len(masks)) for _ in range(4)]
        for seq in orders:
            outcomes[_check_walk(G.n, seq)] += 1
    assert mixed >= 5
    assert outcomes[True] >= 5 and outcomes[False] >= 20


def _full_certificates(G, report):
    """The report's certificates, for degrees dmin..D, completed by
    ``find_order`` on every dual component above D up to the vertex count."""
    dual = alexander_dual_of_edge_ideal(G)
    assert max(report.per_degree, default=dual.max_degree) <= dual.max_degree
    above = {d: find_order(squarefree_degree_component(dual, d))
             for d in range(dual.max_degree + 1, G.n + 1)}
    return {**report.certificates(), **{d: q for d, q in above.items() if q is not None}}


def test_identity_certificates_equal_make_order():
    rng = random.Random(79)
    identity = 0
    for G in _walk_cases(rng):
        dual = alexander_dual_of_edge_ideal(G)
        for d, q in _full_certificates(G, has_dual_linear_quotients(G)).items():
            # the certificate's generators, read as an ideal, must pass the
            # checking constructor and equal the component built from the dual
            assert MonomialIdeal(q.ideal.ambient, q.ideal.gens) == q.ideal
            assert squarefree_degree_component(dual, d) == q.ideal
            r = len(q.gens)
            if q.gens == q.ideal.masks:
                assert q == make_order(q.ideal, range(r))
                assert verify_order(q)
                identity += 1
    assert identity >= 40


def test_certificates_round_trip_through_json():
    rng = random.Random(83)
    checked = 0
    for G in _walk_cases(rng):
        report = has_dual_linear_quotients(G, budget=20_000)
        for q in _full_certificates(G, report).values():
            assert QuotientOrder.from_json(q.to_json(G.labels)) == q
            checked += 1
        # the whole dual mixes degrees when G is not unmixed, which takes
        # from_json through its minimality check
        dual = alexander_dual_of_edge_ideal(G)
        q = make_order(dual, range(len(dual.gens)))
        assert QuotientOrder.from_json(q.to_json(G.labels)) == q
    assert checked >= 100


def test_from_json_rejections():
    good = {"ambient": 3, "vars": ["a", "b", "c"],
            "ordered_gens": [["a"], ["b", "c"]], "colon_vars": [[], ["a"]]}
    assert QuotientOrder.from_json(good) == QuotientOrder(3, (0b001, 0b110), (0, 0b001))
    # a repeated name counts once, though its bits would carry in a sum
    repeated = {"ordered_gens": [["a", "a"], ["b", "c", "c"]], "colon_vars": [[], ["a", "a"]]}
    assert QuotientOrder.from_json({**good, **repeated}) == QuotientOrder.from_json(good)
    cases = {
        "repeated": ({"ordered_gens": [["a", "b"], ["b", "a"]]}, "not minimal or not distinct"),
        "not minimal": ({"ordered_gens": [["a"], ["a", "c"]]}, "not minimal or not distinct"),
        "colon length": ({"colon_vars": [[]]}, "colon variable list length mismatch"),
        "unknown name": ({"colon_vars": [[], ["d"]]}, "unknown variable 'd'"),
        "vars length": ({"vars": ["a", "b"]}, "vars length does not match ambient"),
        "bad ambient": ({"ambient": "three"}, "bad certificate JSON"),
        "not a list": ({"ordered_gens": [["a"], 5]}, "bad certificate JSON"),
        "not a string": ({"colon_vars": [[], [1]]}, "unknown variable 1 in certificate"),
        "nested list": ({"colon_vars": [[], [["a"]]]},
                        "bad certificate JSON: unhashable type: 'list'"),
        "bare string": ({"ordered_gens": [["a"], "bx"]}, "unknown variable 'x' in certificate"),
    }
    for what, (edit, message) in cases.items():
        with pytest.raises(InputError, match=message):
            QuotientOrder.from_json({**good, **edit})


# ---------------------------------------------------------------------------
# find_order


def test_find_order_c5():
    dual = alexander_dual_of_edge_ideal(cycle_graph(5))
    q = find_order(dual)
    assert q is not None and verify_order(q)


def test_find_order_none_for_disjoint_pair():
    I = MonomialIdeal.from_generators(4, [M([0, 2]), M([1, 3])])
    assert find_order(I) is None


def test_find_order_trivial_cases():
    single = MonomialIdeal.from_generators(3, [M([0, 1])])
    q = find_order(single)
    assert verify_order(q) and q.colon_vars == (frozenset(),)
    assert verify_order(find_order(MonomialIdeal(3, ())))
    assert verify_order(find_order(MonomialIdeal(3, (M(()),))))


def test_find_order_requires_equigenerated():
    I = MonomialIdeal.from_generators(3, [M([0]), M([1, 2])])
    with pytest.raises(InputError):
        find_order(I)


def test_find_order_deterministic():
    rng = random.Random(31)
    for _ in range(10):
        G = random_graph(rng, 6, 0.5)
        dual = alexander_dual_of_edge_ideal(G)
        if dual.is_zero:
            continue
        comp = squarefree_degree_component(dual, dual.min_degree + 1)
        a = find_order(comp)
        b = find_order(comp)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.gens == b.gens


def test_find_order_matches_permutation_oracle():
    rng = random.Random(37)
    graphs = [cycle_graph(k) for k in (3, 4, 5, 6)]
    graphs += [random_graph(rng, rng.randint(2, 6), rng.choice([0.3, 0.6]))
               for _ in range(30)]
    checked = lex = impossible = 0
    for G in graphs:
        dual = alexander_dual_of_edge_ideal(G)
        if dual.is_zero:
            continue
        for d in range(dual.min_degree, G.n + 1):
            comp = squarefree_degree_component(dual, d)
            if len(comp.gens) > 9:
                continue
            q = find_order(comp)
            oracle = permutation_order_exists([frozenset(g.support) for g in comp.gens])
            assert (q is not None) == oracle
            if q is not None:
                assert verify_order(q)
                assert q.ideal == comp
            checked += 1
            if len(comp.gens) > 7:
                continue
            # the search returns the first linear permutation of its input
            masks = comp.masks
            for seq in (masks, rng.sample(masks, len(masks))):
                first = next((list(p) for p in permutations(seq)
                              if all(ok for ok, _ in colon_steps_by_ideal(
                                  G.n, [list(_bits(m)) for m in p]))), None)
                found = _search_masks(seq)
                assert (found and found[0]) == first
                # the kept colon masks are those a walk of the order finds
                assert found is None or found[1] == _colon_walk(found[0])[0]
                lex += 1
                impossible += first is None
    assert checked > 40
    assert lex > 150 and impossible >= 10


# ---------------------------------------------------------------------------
# dual linear quotients


def test_dlq_remainder_true_but_induced_four_cycle_false():
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4)])
    assert has_dual_linear_quotients(G).verdict is True
    four = induced_subgraph(G, [0, 1, 2, 3])
    report = has_dual_linear_quotients(four)
    assert report.verdict is False
    assert report.failing_degree == 2


def test_dlq_chordal_graphs():
    rng = random.Random(41)
    seen = 0
    for _ in range(40):
        G = random_graph(rng, rng.randint(1, 8), rng.choice([0.3, 0.5]))
        if not is_chordal(G).chordal:
            continue
        report = has_dual_linear_quotients(G)
        assert report.verdict is True
        for q in report.per_degree.values():
            assert verify_order(q)
        seen += 1
    assert seen >= 15


def test_dlq_c4_fails_at_degree_two():
    # C4's minimal covers all have two vertices, so D = 2 is its only degree;
    # the components above it have orders
    G = cycle_graph(4)
    report = has_dual_linear_quotients(G)
    assert report.verdict is False
    assert report.per_degree == {2: None}
    assert sorted(_full_certificates(G, report)) == [3, 4]


def test_dlq_reports_are_deterministic():
    G = cycle_graph(5)
    a = has_dual_linear_quotients(G)
    b = has_dual_linear_quotients(G)
    assert {d: q.gens for d, q in a.certificates().items()} == \
        {d: q.gens for d, q in b.certificates().items()}


def test_dlq_implies_linear_resolution():
    rng = random.Random(43)
    checked = 0
    for _ in range(25):
        G = random_graph(rng, rng.randint(1, 7), 0.4)
        report = has_dual_linear_quotients(G)
        for d, q in _full_certificates(G, report).items():
            comp = q.ideal
            assert nonlinear_witness(comp) is None
            checked += 1
        if checked >= 60:
            break
    assert checked >= 30


def test_isolated_vertex_does_not_change_dlq():
    rng = random.Random(47)
    for _ in range(20):
        G = random_graph(rng, rng.randint(1, 6), 0.5)
        bigger = Graph(G.n + 1, G.edges())
        assert has_dual_linear_quotients(G).verdict == \
            has_dual_linear_quotients(bigger).verdict


# ---------------------------------------------------------------------------
# the constructive whisker order


def test_whisker_order_smallest():
    e = Graph(2, [(0, 1)])
    q = whisker_order(e, (0, 1), 1)
    assert [list(_bits(m)) for m in q.gens] == [[1], [0]]
    assert verify_order(q)
    assert q.colon_vars == (frozenset(), frozenset({1}))


def test_whisker_order_villarreal_edge():
    # path x1-y1-y2-x2 as whiskering both ends of an edge
    G = Graph(2, [(0, 1)])
    W, wm = add_whiskers(G, [0, 1])
    y, x = wm.pairs[-1]
    q = whisker_order(W, (x, y), 2)
    assert verify_order(q)
    ordered = [frozenset(_bits(m)) for m in q.gens]
    # base-vertex block first, every generator in it contains y
    assert y in ordered[0]


def test_whisker_order_covers_all_degrees_when_fully_whiskered():
    # whiskering every vertex leaves an edgeless remainder, so the
    # construction is guaranteed to produce verifying orders at every degree
    from edgeideals import vertex_covers_of_size
    rng = random.Random(53)
    for _ in range(20):
        G = random_graph(rng, rng.randint(1, 5), 0.5)
        W, wm = add_whiskers(G, range(G.n))
        if not wm.pairs:
            continue
        y, x = wm.pairs[-1]
        for d in range(W.n + 1):
            if vertex_covers_of_size(W, d):
                q = whisker_order(W, (x, y), d)
                assert verify_order(q)
                assert {frozenset(g.support) for g in q.ideal.gens} == \
                    set(vertex_covers_of_size(W, d))
                assert MonomialIdeal(q.ideal.ambient, q.ideal.gens) == q.ideal


def test_whisker_order_fails_when_hypothesis_fails():
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    W, wm = add_whiskers(G, [4])
    q = whisker_order(W, wm.pairs[-1][::-1], 3)
    assert not verify_order(q)


def test_whisker_order_validates_tip():
    W = cycle_graph(4)
    with pytest.raises(InputError):
        whisker_order(W, (0, 1), 2)  # degree-2 vertex is no tip
    e = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        whisker_order(e, (0, 2), 2)  # wrong base
    with pytest.raises(InputError):
        whisker_order(e, (0, 1), 0)  # zero component


def test_search_takes_the_whisker_order_where_the_canonical_order_fails():
    # the order search's structural candidate and whisker_order share one
    # decomposition: without isolated vertices the search decomposes at the
    # last pendant vertex, which is the last added tip
    rng = random.Random(61)
    checked = 0
    for _ in range(1000):
        G = random_graph(rng, rng.randint(2, 7), 0.5)
        S = [v for v in range(G.n) if rng.random() < 0.2]
        W, wm = add_whiskers(G, S)
        if not wm.pairs or any(W.degree(v) == 0 for v in range(W.n)):
            continue
        report = has_dual_linear_quotients(W)
        dual = alexander_dual_of_edge_ideal(W)
        for d in range(dual.min_degree, W.n + 1):
            comp = squarefree_degree_component(dual, d)
            if verify_order(make_order(comp, range(len(comp.gens)))):
                continue
            q = whisker_order(W, wm.pairs[-1][::-1], d)
            if not verify_order(q):
                continue
            assert report.per_degree[d].to_json() == q.to_json()
            checked += 1
    assert checked >= 40


def test_whisker_order_assembles_every_component():
    # _whisker_seq raises unless the y*B, x*D*C and x*(A covers containing
    # y) blocks assemble exactly the component, so a permutation means the
    # decomposition at the tip is a bijection onto the component's covers
    rng = random.Random(59)
    checked = 0
    for _ in range(25):
        G = random_graph(rng, rng.randint(1, 5), 0.5)
        S = [v for v in range(G.n) if rng.random() < 0.5]
        W, wm = add_whiskers(G, S)
        if not wm.pairs:
            continue
        y, x = wm.pairs[-1]
        dual = alexander_dual_of_edge_ideal(W)
        for d in range(W.n + 1):
            comp = squarefree_degree_component(dual, d)
            if comp.is_zero:
                continue
            q = whisker_order(W, (x, y), d)
            assert len(set(q.gens)) == len(q.gens) == len(comp.gens)
            assert set(q.gens) == set(comp.masks)
            assert q.ideal == comp
            checked += 1
    assert checked >= 60


def test_subgraph_induction_claim_desk_scale():
    # hypothesis on tip-free subgraphs propagates to every tip-containing one
    rng = random.Random(61)
    tried = 0
    memo = {}

    def dlq(H):
        if H.adj not in memo:
            memo[H.adj] = has_dual_linear_quotients(H).verdict
        return memo[H.adj]

    while tried < 6:
        n = rng.randint(1, 4)
        G0 = random_graph(rng, n, 0.5)
        S = [v for v in range(n) if rng.random() < 0.7]
        if not S:
            continue
        W, wm = add_whiskers(G0, S)
        if W.n > 9:
            continue
        tips = [t for _, t in wm.pairs]
        y, x = wm.pairs[-1]
        lead = tips[:-1]
        others = [v for v in range(W.n) if v not in (x, y) and v not in lead]
        hyp = True
        for mask in range(1 << len(others)):
            keep = lead + [others[i] for i in range(len(others)) if mask >> i & 1]
            if not dlq(induced_subgraph(W, keep)):
                hyp = False
                break
        if not hyp:
            continue
        rest = [v for v in range(W.n) if v not in tips]
        for mask in range(1 << len(rest)):
            keep = tips + [rest[i] for i in range(len(rest)) if mask >> i & 1]
            assert dlq(induced_subgraph(W, keep))
        tried += 1


def test_isolated_vertex_keeps_the_dlq_verdict():
    # the lemma at harness.all_induced_dlq, on every labelled graph with at
    # most five vertices and on random larger ones
    from itertools import combinations
    graphs = []
    for n in range(6):
        slots = list(combinations(range(n), 2))
        for bits in range(1 << len(slots)):
            graphs.append(Graph(n, [slots[i] for i in range(len(slots)) if bits >> i & 1]))
    rng = random.Random(73)
    graphs += [random_graph(rng, rng.randint(6, 9), 0.4) for _ in range(200)]
    verdicts = set()
    for G in graphs:
        v = has_dual_linear_quotients(G).verdict
        assert has_dual_linear_quotients(Graph(G.n + 1, G.edges())).verdict == v, G
        verdicts.add(v)
    assert verdicts == {True, False}


def test_tip_equivalence_random():
    from edgeideals import all_induced_dlq
    rng = random.Random(67)
    memo = {}
    for _ in range(20):
        n = rng.randint(1, 6)
        G = random_graph(rng, n, 0.45)
        S = frozenset(v for v in range(n) if rng.random() < 0.5)
        lhs = all_induced_dlq(delete_vertices(G, S), memo)
        rhs = all_induced_dlq(G, memo, S=S)
        assert lhs == rhs


def test_search_stats_accumulate():
    reset_search_stats()
    find_order(alexander_dual_of_edge_ideal(cycle_graph(5)))
    assert search_stats["identity"] == 1
    find_order(MonomialIdeal.from_generators(4, [M([0, 2]), M([1, 3])]))
    assert search_stats["exhausted"] == 1


def test_gf2_witness_agrees_with_the_exact_search():
    # linear quotients give a linear resolution over every field
    # (Herzog-Takayama), so a component with a GF(2) Betti witness has no
    # order and a component with an order has no witness; checked on every
    # component the order search visits, the structural candidate's
    # sub-blocks included, against the unbudgeted search alone
    from edgeideals import GF2, nonlinear_witness
    rng = random.Random(61)
    refuted = ordered = 0
    reset_search_stats()
    for _ in range(200):
        n = rng.randint(4, 8)
        G = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        if n < 8 and rng.random() < 0.5:
            G, _ = add_whiskers(G, rng.sample(range(n), rng.randint(1, min(n, 8 - n))))
        ctx = _OrderSearch(G.adj, G.n)
        full = (1 << G.n) - 1
        for d in range(alexander_dual_of_edge_ideal(G).min_degree, G.n + 1):
            ctx.order(full, d)
        for (active, d), got in ctx._orders.items():
            gens = ctx.gens(active, d)
            ideal = MonomialIdeal._from_canonical(G.n, gens)
            exact = _search_masks(gens)
            witness = nonlinear_witness(ideal, GF2)
            if witness is not None:
                assert exact is None, (G, active, d)
                refuted += 1
            elif exact is not None:
                ordered += 1
            assert (got is None) == (exact is None), (G, active, d)
            if (active, d) in ctx.witnesses:
                w = ctx.witnesses[active, d]
                assert got is None and w.degree == d
                assert witness == (w.index, w.multidegree)
            assert ctx._refuted(active, d, gens) == (witness is not None)
    assert refuted >= 20 and ordered >= 500


def test_searched_orders_keep_their_colon_masks(monkeypatch):
    # an order the search finds is packaged with the colon masks the search
    # computed: _order_from_masks walks no order the search returned (a
    # component with the same generators under another key may still walk
    # it, as that key's own identity or structural check)
    import sys
    import edgeideals.quotients as quotients
    from edgeideals import SearchBudgetExceeded
    from oracles import field_pool_graph
    events = []
    walk, search = quotients._colon_walk, quotients._search_masks

    def spied_walk(masks, *args, **kwargs):
        events.append(("walk", tuple(masks), sys._getframe(1).f_code.co_name))
        return walk(masks, *args, **kwargs)

    def spied_search(masks, *args, **kwargs):
        found = search(masks, *args, **kwargs)
        events.append(("search", found and tuple(found[0])))
        return found
    monkeypatch.setattr(quotients, "_colon_walk", spied_walk)
    monkeypatch.setattr(quotients, "_search_masks", spied_search)
    found = 0

    def check(call, *args):
        nonlocal found
        events.clear()
        try:
            call(*args, budget=20_000)
        except SearchBudgetExceeded:
            pass
        for k, event in enumerate(events):
            if event[0] == "search" and event[1]:
                found += 1
                assert ("walk", event[1], "_order_from_masks") not in events[k:], (call, args)
    for i in range(34):
        G = field_pool_graph(i)
        check(has_dual_linear_quotients, G)
        # find_order on the components that have an order
        dual = alexander_dual_of_edge_ideal(G)
        for d in has_dual_linear_quotients(G, budget=20_000).certificates():
            check(find_order, squarefree_degree_component(dual, d))
    assert found >= 100


def test_refute_runs_once_at_the_first_backtrack():
    # nine cubic masks on six variables, in an order whose lexicographic
    # search dead-ends once before it finds an order
    masks = [37, 11, 14, 50, 25, 49, 28, 42, 44]

    def run(refute):
        nodes = []
        calls = []
        reset_search_stats()
        got = _search_masks(masks, lambda: nodes.append(1),
                            refute and (lambda: calls.append(1) or refute()))
        return got, len(nodes), len(calls)

    plain, plain_nodes, _ = run(None)
    assert plain is not None and search_stats["backtracked"] == 1
    # the colon masks kept through the backtrack are the order's own
    assert plain[1] == _colon_walk(plain[0])[0]
    # no witness: the search resumes where it stopped, node for node
    assert run(lambda: False) == (plain, plain_nodes, 1)
    assert search_stats["backtracked"] == 1
    # a witness: the search stops at its first dead end
    got, nodes, calls = run(lambda: True)
    assert got is None and nodes < plain_nodes and calls == 1
    assert search_stats["refuted"] == 1 and search_stats["exhausted"] == 0
    # a greedy win never asks
    C5 = list(alexander_dual_of_edge_ideal(cycle_graph(5)).masks)
    assert _search_masks(C5, refute=lambda: pytest.fail("asked without a backtrack")) == (
        C5, _colon_walk(C5)[0])


def test_witness_scan_is_charged_to_the_budget(monkeypatch):
    # RP2-SD's first non-identity degree reaches its first backtrack within
    # 100 nodes; its lcm lattice is larger than what is left, so the scan
    # is cut off and the degree is unknown rather than scanned to the end
    import edgeideals.quotients as quotients
    from edgeideals.errors import SearchBudgetExceeded
    from edgeideals.harness import rp2_sd
    outcomes = []
    scan = quotients.nonlinear_witness

    def spy(*args):
        try:
            got = scan(*args)
        except SearchBudgetExceeded:
            outcomes.append("cut off")
            raise
        outcomes.append(got)
        return got

    monkeypatch.setattr(quotients, "nonlinear_witness", spy)
    reset_search_stats()
    report = has_dual_linear_quotients(rp2_sd(), budget=100, stop_at_failure=True)
    assert outcomes == ["cut off"]
    assert report.verdict is None and report.unknown[0] == 28 and not report.witnesses
    assert search_stats["refuted"] == 0
    outcomes.clear()
    report = has_dual_linear_quotients(rp2_sd(), budget=20_000, stop_at_failure=True)
    assert len(outcomes) == 1 and outcomes[0] is not None
    assert report.verdict is False and report.failing_degree == 28
    assert search_stats["refuted"] == 1


def test_dlq_budget_marks_unknown():
    report = has_dual_linear_quotients(cycle_graph(4), budget=0)
    assert report.verdict is None
    assert report.unknown == (2,) and report.per_degree == {}
    # C4 with a pendant path x1-x5-x6: minimal covers of three and four
    # vertices, degree 3 needs the search, degree 4 does not
    G = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5)])
    report = has_dual_linear_quotients(G, budget=0)
    assert report.verdict is None and report.unknown == (3,)
    assert report.per_degree[4] is not None  # canonical order needs no search


def test_dual_orders_match_the_report():
    # the mask core, which the T3.7 sweep calls, against the report it is
    # wrapped into: degrees, ordered masks, colon masks, witnesses, unknown
    # and skipped degrees, on whisker(G, S) for every class (G, S) through
    # five vertices and on RP2-SD and the 34 field pool graphs, each with
    # and without stopping at a failure and under three budgets
    from edgeideals.decide import DEFAULT_SEARCH_BUDGET
    from edgeideals.harness import _classes, rp2_sd
    from edgeideals.quotients import _dual_orders
    from oracles import field_pool_graph
    graphs = [add_whiskers(Graph._from_adj(adj, _default_labels(n)), _bits(smask))[0]
              for n, classes in _classes(5) for adj, smask in classes]
    field = [rp2_sd()] + [field_pool_graph(i) for i in range(34)]
    runs = [(G, None, stop) for G in graphs for stop in (False, True)]
    runs += [(G, budget, stop) for G in field for budget in (50, DEFAULT_SEARCH_BUDGET, None)
             for stop in (False, True)]
    seen = set()
    for G, budget, stop in runs:
        report = has_dual_linear_quotients(G, budget=budget, stop_at_failure=stop)
        ordered, unknown, skipped, ctx = _dual_orders(G.adj, report.dual.masks, budget, stop)
        full = (1 << G.n) - 1
        assert (unknown, skipped) == (report.unknown, report.skipped), G
        assert ordered.keys() == report.per_degree.keys(), G
        for d, q in report.per_degree.items():
            if q is None:
                assert ordered[d] is None and ctx.witnesses.get((full, d)) == \
                    report.witnesses.get(d), (G, d)
            else:
                colon = ctx._colon.get((full, d)) or _colon_walk(ordered[d])[0]
                assert (q.gens, q.colon) == (tuple(ordered[d]), tuple(colon)), (G, d)
        seen.add(report.verdict)
    assert seen == {True, False, None}


def test_find_order_budget_raises():
    from edgeideals import SearchBudgetExceeded
    I = MonomialIdeal.from_generators(4, [M([0, 2]), M([1, 3])])
    with pytest.raises(SearchBudgetExceeded):
        find_order(I, budget=0)


def test_listed_remainder_order_verifies():
    # the worked remainder graph: four listed covers in their given order
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4)])
    dual = alexander_dual_of_edge_ideal(G)
    pos = {frozenset(g.support): i for i, g in enumerate(dual.gens)}
    seq = [frozenset({0, 2, 3}), frozenset({1, 2, 3}),
           frozenset({0, 2, 4}), frozenset({1, 3, 4})]
    q = make_order(dual, [pos[s] for s in seq])
    assert verify_order(q)
    assert q.step_sizes() == [0, 1, 1, 1]


def test_unmixed_graph_takes_its_top_component_from_the_dual(monkeypatch):
    # an unmixed graph's one component is the dual's generator list (the
    # lemma at quotients._dual_orders); a mixed graph still walks
    from edgeideals import path_graph, quotients
    walked = []
    walk = quotients._covers_by_size

    def spy(adj, active, top):
        walked.append((len(adj), active))
        return walk(adj, active, top)

    monkeypatch.setattr(quotients, "_covers_by_size", spy)
    W, _ = add_whiskers(cycle_graph(5), range(5))
    for G, verdict in ((W, True), (cycle_graph(5), True), (cycle_graph(4), False)):
        walked.clear()
        report = has_dual_linear_quotients(G)
        assert report.dual.is_equigenerated and report.verdict is verdict
        assert (G.n, (1 << G.n) - 1) not in walked, G
    for G in (path_graph(3), path_graph(5)):
        walked.clear()
        report = has_dual_linear_quotients(G)
        assert not report.dual.is_equigenerated and report.verdict is True
        assert (G.n, (1 << G.n) - 1) in walked, G


def test_readme_whisker_order_example_runs():
    # the Library quickstart's examples (the quickstart block, the
    # QuotientOrder, MonomialIdeal and whisker_order blocks) print what
    # they say
    import contextlib
    import io
    import re
    from pathlib import Path
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    expected = {
        "sufficient_scm(": "True\nTrue\nchordal-remainder\n2 1 [0, 1, 2, 3]\nTrue\n",
        "step_sizes()": "['0b1011', '0b1101', '0b10101', '0b10110', '0b11010'] "
                        "[0, 1, 1, 1, 2] True\n",
        "dual.masks[0]": "11 [0, 1, 3]\n",
        "whisker_order(": "True 5\n",
    }
    for marker, want in expected.items():
        block, = [b for b in blocks if marker in b]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, {})
        assert out.getvalue() == want, marker
