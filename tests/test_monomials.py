import random

import pytest

from edgeideals import (Graph, InputError, Monomial, MonomialIdeal,
                        alexander_dual_of_edge_ideal, cycle_graph, edge_ideal,
                        squarefree_degree_component, vertex_covers_of_size)
from edgeideals.graphs import _default_labels, _whiskered_adj
from edgeideals.harness import _classes, rp2_sd
from edgeideals.monomials import _component_masks, _order_key

from oracles import brute_dual, colon_by_monomial, degree_component_by_generators, field_pool_graph


def M(*vs):
    return Monomial(vs)


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_monomial_basics():
    m = M(0, 2, 3)
    assert m.degree == 3 and m.support == {0, 2, 3}
    assert M(0, 2).mask & ~m.mask == 0 and m.mask & ~M(0, 2).mask != 0


def test_ideal_canonical_order_and_minimality():
    I = MonomialIdeal.from_generators(5, [M(1, 2), M(0, 1), M(0, 1, 2)])
    assert [sorted(g.support) for g in I.gens] == [[0, 1], [1, 2]]
    with pytest.raises(InputError):
        MonomialIdeal(3, (M(0), M(0, 1)))
    with pytest.raises(InputError):
        MonomialIdeal(2, (M(0, 1), M(0)))  # wrong order
    with pytest.raises(InputError):
        MonomialIdeal(1, (M(3),))  # outside ambient


def test_zero_and_unit_conventions():
    z = MonomialIdeal(4, ())
    u = MonomialIdeal(4, (M(),))
    assert z.is_zero and z.gens != (M(),)
    assert u.gens == (M(),) and not u.is_zero
    assert any(h.mask & ~M(1).mask == 0 for h in u.gens)
    assert not any(h.mask & ~M(1).mask == 0 for h in z.gens)


def test_edge_ideal_examples():
    assert [sorted(g.support) for g in edge_ideal(cycle_graph(4)).gens] == \
        [[0, 1], [0, 3], [1, 2], [2, 3]]
    G = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4), (4, 5)])
    assert {frozenset(g.support) for g in edge_ideal(G).gens} == \
        {frozenset(e) for e in G.edges()}
    assert edge_ideal(Graph(3)).is_zero


def test_dual_examples():
    c5 = alexander_dual_of_edge_ideal(cycle_graph(5))
    assert [sorted(g.support) for g in c5.gens] == \
        [[0, 1, 3], [0, 2, 3], [0, 2, 4], [1, 2, 4], [1, 3, 4]]
    # remainder graph of the first worked example
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4)])
    got = {frozenset(g.support) for g in alexander_dual_of_edge_ideal(G).gens}
    assert got == {frozenset({0, 2, 3}), frozenset({1, 2, 3}),
                   frozenset({0, 2, 4}), frozenset({1, 3, 4})}


def test_dual_of_edgeless_is_unit():
    assert alexander_dual_of_edge_ideal(Graph(3)).gens == (M(),)


def test_dual_passes_the_checking_constructor():
    # the dual wraps the cover masks without the constructor's checks: they
    # must already be in ambient, canonical, distinct and minimal
    rng = random.Random(5)
    graphs = [Graph(0), Graph(4)]
    graphs += [random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.4, 0.7]))
               for _ in range(60)]
    mixed = 0
    for G in graphs:
        dual = alexander_dual_of_edge_ideal(G)
        assert MonomialIdeal(G.n, dual.gens) == dual
        assert dual == MonomialIdeal.from_generators(G.n, dual.gens)
        mixed += not dual.is_equigenerated
    assert mixed >= 15


def test_dual_involution_via_hitting_sets():
    rng = random.Random(3)
    for _ in range(25):
        G = random_graph(rng, rng.randint(2, 8), 0.4)
        if G.edge_count() == 0:
            continue
        dual = alexander_dual_of_edge_ideal(G)
        supports = [frozenset(g.support) for g in dual.gens]
        back = brute_dual(supports)
        assert sorted(map(sorted, back)) == \
            sorted(sorted(g.support) for g in edge_ideal(G).gens)


def test_squarefree_degree_component_examples():
    # pendant four-cycle, whiskered: degree-3 part keeps only the three
    # degree-3 covers
    gens = [M(0, 2, 4), M(1, 3, 4), M(0, 2, 5), M(0, 1, 3, 5)]
    I = MonomialIdeal.from_generators(6, gens)
    comp = squarefree_degree_component(I, 3)
    assert {frozenset(g.support) for g in comp.gens} == \
        {frozenset({0, 2, 4}), frozenset({1, 3, 4}), frozenset({0, 2, 5})}
    assert squarefree_degree_component(I, 2).is_zero


def test_component_matches_covers_of_size():
    rng = random.Random(5)
    for _ in range(25):
        G = random_graph(rng, rng.randint(1, 8), 0.4)
        dual = alexander_dual_of_edge_ideal(G)
        for d in range(G.n + 1):
            comp = squarefree_degree_component(dual, d)
            covers = vertex_covers_of_size(G, d)
            assert {frozenset(g.support) for g in comp.gens} == set(covers)


def _check_component(I, d):
    """The package's component of I in degree d against the per-generator
    oracle: in canonical order, as a set, and against size limits."""
    want = degree_component_by_generators(I, d)
    assert squarefree_degree_component(I, d) == want
    got = _component_masks(I.masks, I.ambient, d)
    assert got == set(want.masks)
    r = len(want.masks)
    assert _component_masks(I.masks, I.ambient, d, r) == got
    if r:
        assert _component_masks(I.masks, I.ambient, d, r - 1) is None


def test_component_masks_match_the_generator_oracle():
    # every degree dmin - 1 .. D + 1 of the benchmark's field duals (RP2-SD
    # and the G(14, 0.3) pool) and of the duals of every whiskered (G, S)
    # class on at most five vertices
    duals = [alexander_dual_of_edge_ideal(rp2_sd())]
    duals += [alexander_dual_of_edge_ideal(field_pool_graph(i)) for i in range(34)]
    for _, classes in _classes(5):
        for adj, smask in classes:
            wadj = _whiskered_adj(adj, smask)
            W = Graph._from_adj(wadj, _default_labels(len(wadj)))
            duals.append(alexander_dual_of_edge_ideal(W))
    checked = 0
    for dual in duals:
        for d in range(max(dual.min_degree - 1, 0), dual.max_degree + 2):
            _check_component(dual, d)
            checked += 1
    assert len(duals) == 35 + 662 and checked == 2807


def test_component_monotone():
    rng = random.Random(7)
    for _ in range(10):
        G = random_graph(rng, rng.randint(2, 7), 0.5)
        dual = alexander_dual_of_edge_ideal(G)
        if dual.is_zero:
            continue
        for d in range(dual.min_degree, G.n):
            comp = squarefree_degree_component(dual, d)
            nxt = squarefree_degree_component(dual, d + 1)
            for g in comp.gens:
                for v in range(G.n):
                    if v not in g.support:
                        up = g.mask | 1 << v
                        assert any(h.mask & ~up == 0 for h in nxt.gens)


def test_colon_examples():
    I = MonomialIdeal.from_generators(5, [M(0, 1, 3)])
    assert [sorted(g.support) for g in colon_by_monomial(I, M(0, 2, 3)).gens] == [[1]]
    c5 = alexander_dual_of_edge_ideal(cycle_graph(5))
    prefix = MonomialIdeal.from_generators(5, list(c5.gens[:4]))
    got = colon_by_monomial(prefix, M(1, 3, 4))
    assert [sorted(g.support) for g in got.gens] == [[0], [2]]
    assert colon_by_monomial(c5, M(0, 1, 3)).gens == (M(),)


def test_minimalize_examples():
    minimalize = MonomialIdeal.from_generators
    assert [sorted(g.support) for g in minimalize(3, [M(0), M(0, 1)]).gens] == [[0]]
    assert [sorted(g.support) for g in minimalize(5, [M(1, 3), M(3)]).gens] == [[3]]
    anti = [M(0, 1), M(1, 2), M(0, 2)]
    assert list(minimalize(3, anti).gens) == sorted(anti, key=lambda g: _order_key(g.mask))


def test_order_key_orders_as_the_tuple_key():
    # the string key sorts masks of mixed widths and sizes exactly as the
    # key (degree, sorted support) did
    rng = random.Random(13)
    masks = {0}
    for _ in range(4000):
        width = rng.choice([1, 2, 5, 9, 16, 40, 130])
        if rng.random() < 0.5:
            masks.add(rng.getrandbits(width))
        else:
            masks.add(sum(1 << v for v in rng.sample(range(width), rng.randint(1, min(width, 4)))))
    masks = list(masks)
    rng.shuffle(masks)
    want = sorted(masks, key=lambda m: (m.bit_count(), tuple(v for v in range(m.bit_length())
                                                             if m >> v & 1)))
    assert sorted(masks, key=_order_key) == want
    assert len({_order_key(m) for m in masks}) == len(masks)


def test_ideal_json_roundtrip():
    G = cycle_graph(5)
    dual = alexander_dual_of_edge_ideal(G)
    data = dual.to_json(G.labels)
    assert data["gens"][0] == ["x1", "x2", "x4"]
    assert MonomialIdeal.from_json(data) == dual
    with pytest.raises(InputError):
        MonomialIdeal.from_json({"ambient": 2, "vars": ["a"], "gens": []})


def test_colon_contains_image_and_is_minimal():
    rng = random.Random(23)
    for _ in range(20):
        G = random_graph(rng, rng.randint(2, 7), 0.5)
        I = alexander_dual_of_edge_ideal(G)
        if I.is_zero:
            continue
        u = M(*rng.sample(range(G.n), rng.randint(1, G.n)))
        C = colon_by_monomial(I, u)
        for g in I.gens:
            image = g.mask & ~u.mask
            assert any(h.mask & ~image == 0 for h in C.gens)
        for a in C.gens:
            for b in C.gens:
                assert a == b or a.mask & ~b.mask != 0


def test_from_generators_matches_brute_minimal_sets():
    # minimality is checked only against kept generators of lower degree;
    # compare with the definition on random mixed-degree generating sets
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 7)
        sets = [frozenset(rng.sample(range(n), rng.randint(0, n)))
                for _ in range(rng.randint(0, 12))]
        I = MonomialIdeal.from_generators(n, [Monomial(s) for s in sets])
        distinct = set(sets)
        expected = sorted((Monomial(s) for s in distinct if not any(o < s for o in distinct)),
                          key=lambda g: _order_key(g.mask))
        assert list(I.gens) == expected
        assert MonomialIdeal(n, I.gens) == I  # the validating constructor agrees
    with pytest.raises(InputError):
        MonomialIdeal.from_generators(2, [M(0), M(1, 3)])  # outside ambient


def test_library_paths_build_no_monomial(monkeypatch):
    # ideals hold generator masks: verdicts, evidence re-checks, campaigns
    # and fixtures build Monomial objects only when a caller reads ``gens``
    from edgeideals import (GF2, GF3, QQ, Campaign, FIXTURE_IDS, add_whiskers,
                            check_evidence, has_dual_linear_quotients, is_cm,
                            is_sequentially_cm, run_campaign, run_fixture)
    from edgeideals.decide import DEFAULT_SEARCH_BUDGET
    from edgeideals.harness import rp2_sd
    from oracles import field_pool_graph

    built = []
    init = Monomial.__init__
    from_mask = Monomial.from_mask.__func__

    def counted_init(self, variables=()):
        built.append("__init__")
        init(self, variables)

    def counted_from_mask(cls, mask):
        built.append("from_mask")
        return from_mask(cls, mask)

    monkeypatch.setattr(Monomial, "__init__", counted_init)
    monkeypatch.setattr(Monomial, "from_mask", classmethod(counted_from_mask))

    whiskered, _ = add_whiskers(cycle_graph(6), range(6))
    graphs = [rp2_sd(), whiskered] + [field_pool_graph(i) for i in range(6)]
    for i, G in enumerate(graphs):
        decide = (is_sequentially_cm, is_cm)[i % 2]
        for field in (GF2, GF3, QQ):
            assert check_evidence(G, decide(G, field).to_json(G.labels))[0]
        report = has_dual_linear_quotients(G, budget=DEFAULT_SEARCH_BUDGET)
        assert check_evidence(G, report.to_json(G.labels))[0]
    assert run_campaign(Campaign("T4.1", trials=4, max_n=6, seed=1,
                                 fields=(GF2, GF3, QQ))).ok
    assert run_campaign(Campaign("T3.7", max_n=4)).ok
    for fixture in FIXTURE_IDS:
        assert run_fixture(fixture).passed
    assert built == []
    # the counters do see the boundary
    assert len(alexander_dual_of_edge_ideal(cycle_graph(5)).gens) == 5
    Monomial((0, 1))
    assert built == ["from_mask"] * 5 + ["__init__"]
