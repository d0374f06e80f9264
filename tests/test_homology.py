import random
from itertools import combinations

import pytest

from edgeideals import (GF2, GF3, QQ, FieldSpec, Graph, InputError, Monomial,
                        MonomialIdeal, SimplicialComplex, add_whiskers,
                        alexander_dual_of_edge_ideal,
                        betti_from_quotient_order, betti_numbers, cycle_graph,
                        find_order, is_componentwise_linear,
                        make_order, nonlinear_witness, reduced_homology_ranks,
                        squarefree_degree_component, upper_koszul_complex)
from edgeideals.graphs import _bits, _mask_of
from edgeideals.homology import (_connected, _facet_ranks, _lcm_lattice, _rank_exact, _rank_gf2,
                                _rank_modp)

from oracles import (boundary_columns, component_count, faces_by_size,
                     hilbert_numerator_from_betti, hilbert_numerator_from_gens,
                     koszul_faces_by_scan, rank_by_dense_elimination,
                     reduced_homology_by_dense_elimination)

M = Monomial


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def random_squarefree_ideal(rng, ambient, count):
    gens = []
    for _ in range(count):
        deg = rng.randint(1, max(1, ambient - 1))
        gens.append(M(rng.sample(range(ambient), deg)))
    return MonomialIdeal.from_generators(ambient, gens)


# ---------------------------------------------------------------------------
# field specs


def test_field_spec_parse_and_validate():
    assert FieldSpec.parse("q").is_rational
    assert FieldSpec.parse("2") == GF2
    assert FieldSpec.parse("p:7").characteristic == 7
    assert str(QQ) == "q" and str(GF3) == "3"
    with pytest.raises(InputError):
        FieldSpec.parse("6")
    with pytest.raises(InputError):
        FieldSpec(1)
    # primality is trial division, so characteristics stop below 2**31
    assert FieldSpec(2 ** 31 - 1).characteristic == 2 ** 31 - 1
    with pytest.raises(InputError, match="2\\*\\*31"):
        FieldSpec(2 ** 61 - 1)


# ---------------------------------------------------------------------------
# upper Koszul complexes


def test_upper_koszul_two_disjoint_edges():
    I = MonomialIdeal.from_generators(4, [M([0, 2]), M([1, 3])])
    K = upper_koszul_complex(I, M([0, 1, 2, 3]))
    assert set(K.facets) == {0b1010, 0b0101}
    scan = koszul_faces_by_scan([frozenset({0, 2}), frozenset({1, 3})], {0, 1, 2, 3})
    assert {frozenset(_bits(m)) for m in K.face_masks()} == scan


def test_upper_koszul_minimal_generator_is_irrelevant():
    I = MonomialIdeal.from_generators(4, [M([0, 2]), M([1, 3])])
    K = upper_koszul_complex(I, M([0, 2]))
    assert K.facets == (0,) and not K.is_void
    assert reduced_homology_ranks(K, GF2) == {-1: 1}


def test_upper_koszul_outside_ideal_is_void():
    I = MonomialIdeal.from_generators(4, [M([0, 2]), M([1, 3])])
    K = upper_koszul_complex(I, M([0, 1]))
    assert K.is_void and K.dim is None
    assert reduced_homology_ranks(K, GF2) == {}


def test_upper_koszul_random_matches_scan():
    rng = random.Random(3)
    for _ in range(20):
        I = random_squarefree_ideal(rng, 6, rng.randint(1, 4))
        b = M(rng.sample(range(6), rng.randint(0, 6)))
        K = upper_koszul_complex(I, b)
        scan = koszul_faces_by_scan([frozenset(g.support) for g in I.gens], b.support)
        assert {frozenset(_bits(m)) for m in K.face_masks()} == scan


# ---------------------------------------------------------------------------
# reduced homology


def test_hollow_triangle_circle():
    K = SimplicialComplex(_mask_of(range(3)), map(_mask_of, [{0, 1}, {1, 2}, {0, 2}]))
    for f in (GF2, GF3, QQ):
        assert reduced_homology_ranks(K, f) == {-1: 0, 0: 0, 1: 1}


def test_two_disjoint_edges_components():
    K = SimplicialComplex(_mask_of(range(4)), map(_mask_of, [{0, 2}, {1, 3}]))
    ranks = reduced_homology_ranks(K, GF2)
    assert ranks == {-1: 0, 0: 1, 1: 0}
    assert component_count(range(4), [(0, 2), (1, 3)]) - 1 == ranks[0]


def test_full_simplex_contractible():
    K = SimplicialComplex(_mask_of(range(4)), map(_mask_of, [{0, 1, 2, 3}]))
    assert all(r == 0 for r in reduced_homology_ranks(K, QQ).values())


def test_sphere_boundary_of_tetrahedron():
    facets = [set(c) for c in combinations(range(4), 3)]
    K = SimplicialComplex(_mask_of(range(4)), map(_mask_of, facets))
    for f in (GF2, GF3, QQ):
        assert reduced_homology_ranks(K, f) == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_projective_plane_characteristic_dependence():
    # minimal six-vertex triangulation: homology differs between GF(2) and Q
    facets = [{0, 1, 4}, {0, 1, 5}, {0, 2, 3}, {0, 2, 4}, {0, 3, 5},
              {1, 2, 3}, {1, 2, 5}, {1, 3, 4}, {2, 4, 5}, {3, 4, 5}]
    K = SimplicialComplex(_mask_of(range(6)), map(_mask_of, facets))
    gf2 = reduced_homology_ranks(K, GF2)
    rat = reduced_homology_ranks(K, QQ)
    gf3 = reduced_homology_ranks(K, GF3)
    assert gf2 == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert rat == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert gf3 == rat


def test_complex_keeps_the_maximal_facets_of_any_family():
    # repeated, nested and empty facets reduce to the inclusion-maximal
    # ones, each once, in one order whatever the order of the input
    rng = random.Random(17)
    cases = [(0b111, []), (0b111, [0])]
    for _ in range(500):
        n = rng.randint(0, 6)
        base = [rng.getrandbits(n) for _ in range(rng.randint(1, 5))]
        family = base + [m & rng.getrandbits(n) for m in base] + rng.choices(base, k=2)
        rng.shuffle(family)
        cases.append(((1 << n) - 1, family))
    for ground, family in cases:
        K = SimplicialComplex(ground, family)
        maximal = {m for m in family if not any(m != f and m & ~f == 0 for f in family)}
        assert set(K.facets) == maximal and len(K.facets) == len(maximal), family
        assert K.facets == SimplicialComplex(ground, reversed(family)).facets
    assert SimplicialComplex(0b111, []).is_void
    assert SimplicialComplex(0b111, [0]).facets == (0,)
    with pytest.raises(InputError):
        SimplicialComplex(0b011, [0b001, 0b100])


def test_rank_kernels_match_dense_elimination():
    # random sparse integer columns with entries beyond +-1 and multiples of
    # the primes, so the Q kernel's gcd step runs, and the boundary matrices
    # of random complexes
    rng = random.Random(29)
    cases = [[{0: 1, 1: 2}, {0: 1, 1: 4}]]  # the second column reduces to {1: 2}
    for _ in range(300):
        rows, scale = rng.randint(1, 8), rng.choice((1, 2, 3, 6))
        cases.append([{r: scale * rng.randint(-6, 6)
                       for r in rng.sample(range(rows), rng.randint(0, rows))}
                      for _ in range(rng.randint(0, 8))])
    for _ in range(40):
        faces = faces_by_size(rng.sample(range(6), rng.randint(1, 5))
                              for _ in range(rng.randint(1, 5)))
        cases += [boundary_columns(faces[k], faces[k - 1]) for k in range(1, max(faces) + 1)]
    for cols in cases:
        assert _rank_gf2([sum(1 << r for r, v in c.items() if v % 2) for c in cols]) == \
            rank_by_dense_elimination(cols, 2)
        for p in (3, 5, 2 ** 31 - 1):
            assert _rank_modp(cols, p) == rank_by_dense_elimination(cols, p), (cols, p)
        assert _rank_exact(cols) == rank_by_dense_elimination(cols), cols


def test_facet_kernel_takes_any_family_of_facets():
    # nested and repeated members add no face, and _check_betti_witness
    # hands the kernel a plain set: the ranks are the complex's all the same
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(0, 6)
        base = [rng.getrandbits(n) for _ in range(rng.randint(1, 5))]
        family = base + [m & rng.getrandbits(n) for m in base] + rng.choices(base, k=2)
        rng.shuffle(family)
        for field, p in ((GF2, 2), (GF3, 3), (QQ, None)):
            want = reduced_homology_by_dense_elimination([list(_bits(m)) for m in family], p)
            assert _facet_ranks(family, field) == want, (family, field)
            assert _facet_ranks(set(family), field) == want
            assert reduced_homology_ranks(SimplicialComplex((1 << n) - 1, family), field) == want
    assert _facet_ranks([], GF2) == {} and _facet_ranks({0}, QQ) == {-1: 1}


def test_library_paths_build_no_simplicial_complex(monkeypatch):
    # the library hands facet masks to the ranks kernel: verdicts, evidence
    # re-checks, dlq reports, campaigns (T4.1's Koszul lift in three fields
    # included) and fixtures build no SimplicialComplex
    from edgeideals import (FIXTURE_IDS, Campaign, check_evidence, has_dual_linear_quotients,
                            is_cm, is_sequentially_cm, run_campaign, run_fixture)
    from edgeideals import harness
    from edgeideals.decide import DEFAULT_SEARCH_BUDGET
    from oracles import field_pool_graph

    built, lifts, kinds = [], [], set()
    init = SimplicialComplex.__init__
    lift = harness.check_koszul_lift

    def counted_init(self, ground, facets):
        built.append(ground)
        init(self, ground, facets)

    def counted_lift(*args):
        lifts.append(args)
        return lift(*args)

    monkeypatch.setattr(SimplicialComplex, "__init__", counted_init)
    monkeypatch.setattr(harness, "check_koszul_lift", counted_lift)
    graphs = [harness.rp2_sd()] + [field_pool_graph(i) for i in range(6)]
    for i, G in enumerate(graphs):
        decide = (is_sequentially_cm, is_cm)[i % 2]
        for field in (GF2, GF3, QQ):
            data = decide(G, field).to_json(G.labels)
            kinds.add(data["evidence"]["kind"])
            assert check_evidence(G, data)[0]
        report = has_dual_linear_quotients(G, budget=DEFAULT_SEARCH_BUDGET)
        assert check_evidence(G, report.to_json(G.labels))[0]
    assert run_campaign(Campaign("T4.1", trials=4, max_n=6, seed=1,
                                 fields=(GF2, GF3, QQ))).ok
    assert run_campaign(Campaign("T3.7", max_n=4)).ok
    for fixture in FIXTURE_IDS:
        assert run_fixture(fixture).passed
    assert built == []
    assert len(lifts) == 12 and {"betti-witness", "componentwise-scan"} <= kinds
    # the counter does see the public constructor
    upper_koszul_complex(MonomialIdeal.from_generators(4, [M([0, 2]), M([1, 3])]), M([0, 1, 2, 3]))
    assert built == [0b1111]


# ---------------------------------------------------------------------------
# Betti tables


def test_betti_ex38_whiskered_full_table():
    G = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4), (4, 5)])
    W, _ = add_whiskers(G, [5])
    dual = alexander_dual_of_edge_ideal(W)
    expect = {(0, 4): 6, (1, 5): 5, (1, 6): 1, (2, 7): 1}
    for f in (GF2, GF3, QQ):
        assert betti_numbers(dual, f).totals == expect


def test_betti_principal_ideal():
    I = MonomialIdeal.from_generators(4, [M([0, 2, 3])])
    t = betti_numbers(I, GF2)
    assert t.totals == {(0, 3): 1}
    assert t.entries.get((0, frozenset({0, 2, 3})), 0) == 1


def test_betti_zero_entries_only_at_support_unions():
    I = MonomialIdeal.from_generators(4, [M([0, 1]), M([1, 2]), M([2, 3])])
    t = betti_numbers(I, GF2)
    unions = set()
    from itertools import combinations as comb
    sups = [frozenset(g.support) for g in I.gens]
    for r in range(1, 4):
        for group in comb(sups, r):
            u = frozenset().union(*group)
            unions.add(u)
    for (i, b) in t.entries:
        assert frozenset(b) in unions


def test_betti_full_scan_agrees_with_lattice_scan():
    rng = random.Random(7)
    for _ in range(10):
        I = random_squarefree_ideal(rng, 6, rng.randint(1, 4))
        t = betti_numbers(I, GF2)
        full = {}
        for size in range(7):
            for combo in combinations(range(6), size):
                b = M(combo)
                K = upper_koszul_complex(I, b)
                for j, r in reduced_homology_ranks(K, GF2).items():
                    if r:
                        full[(j + 1, frozenset(combo))] = r
        assert full == t.entries


def test_beta_zero_exactly_at_minimal_generators():
    rng = random.Random(11)
    for _ in range(10):
        I = random_squarefree_ideal(rng, 6, rng.randint(1, 5))
        t = betti_numbers(I, GF2)
        got = {b for (i, b), r in t.entries.items() if i == 0}
        assert got == {frozenset(g.support) for g in I.gens}
        assert all(t.entries[(0, b)] == 1 for b in got)


def test_betti_oracle_c5():
    dual = alexander_dual_of_edge_ideal(cycle_graph(5))
    q = find_order(dual)
    t = betti_from_quotient_order(q)
    assert t.totals == {(0, 3): 5, (1, 4): 5, (2, 5): 1}
    assert t.totals == betti_numbers(dual, GF2).totals
    assert t.totals == betti_numbers(dual, QQ).totals


def test_betti_oracle_rejects_bad_certificates():
    I = MonomialIdeal.from_generators(4, [M([0, 2]), M([1, 3])])
    with pytest.raises(InputError):
        betti_from_quotient_order(make_order(I, [0, 1]))
    J = MonomialIdeal.from_generators(3, [M([0]), M([1, 2])])
    with pytest.raises(InputError):
        betti_from_quotient_order(make_order(J, [0, 1]))


def test_betti_oracle_single_generator():
    I = MonomialIdeal.from_generators(3, [M([0, 1])])
    assert betti_from_quotient_order(find_order(I)).totals == {(0, 2): 1}


def test_ex39_dual_betti_split_and_component_oracle():
    G = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4), (1, 5), (2, 5)])
    W, _ = add_whiskers(G, [5])
    dual = alexander_dual_of_edge_ideal(W)
    t = betti_numbers(dual, GF2)
    assert t.totals[(0, 4)] == 5 and t.totals[(0, 5)] == 1
    for d in (4, 5):
        comp = squarefree_degree_component(dual, d)
        q = find_order(comp)
        assert q is not None
        assert betti_from_quotient_order(q).totals == betti_numbers(comp, GF2).totals


# ---------------------------------------------------------------------------
# linear resolutions


def test_disjoint_pair_not_linear():
    I = MonomialIdeal.from_generators(4, [M([0, 2]), M([1, 3])])
    assert nonlinear_witness(I, GF2) is not None
    assert nonlinear_witness(I, GF2) == (1, frozenset({0, 1, 2, 3}))


def test_ex43_component_not_linear():
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    W, _ = add_whiskers(G, [4])
    comp = squarefree_degree_component(alexander_dual_of_edge_ideal(W), 3)
    assert betti_numbers(comp, GF2).totals == {(0, 3): 3, (1, 4): 1, (1, 5): 1}
    assert nonlinear_witness(comp, GF2) is not None
    i, b = nonlinear_witness(comp, GF2)
    assert (i, len(b)) == (1, 5)


def test_certified_components_have_linear_resolution():
    rng = random.Random(13)
    for _ in range(15):
        G = random_graph(rng, rng.randint(1, 7), 0.4)
        dual = alexander_dual_of_edge_ideal(G)
        if dual.is_zero:
            continue
        for d in range(dual.min_degree, G.n + 1):
            comp = squarefree_degree_component(dual, d)
            q = find_order(comp)
            if q is not None:
                assert nonlinear_witness(comp, GF2) is None


def test_nonlinear_witness_requires_equigenerated():
    I = MonomialIdeal.from_generators(3, [M([0]), M([1, 2])])
    with pytest.raises(InputError):
        nonlinear_witness(I, GF2)


def _components(dual):
    return [squarefree_degree_component(dual, d)
            for d in range(dual.min_degree, dual.max_degree + 1)]


def test_skip_matches_the_full_scan_on_the_pool():
    # the purity skip (no ranks at |b| <= d + 1, connectivity at d + 2)
    # meets the first witness of the unskipped scan with dense ranks.  The
    # dense scan of all 118 components of the 34 pool-graph duals takes
    # tens of seconds per field, so the 42 components whose lcm lattice
    # has at most 150 points are checked here, 13 of them with a witness
    from oracles import field_pool_graph, nonlinear_witness_by_full_scan
    checked = refuted = 0
    for i in range(34):
        for comp in _components(alexander_dual_of_edge_ideal(field_pool_graph(i))):
            if len(_lcm_lattice(comp.masks)) > 150:
                continue
            checked += 1
            for field in (GF2, GF3, QQ):
                w = nonlinear_witness(comp, field)
                assert w == nonlinear_witness_by_full_scan(comp, field), (i, comp.masks, field)
            refuted += w is not None
    assert (checked, refuted) == (42, 13)


def test_skip_matches_the_full_scan_on_whiskered_classes():
    # a seeded share of the 544 whiskered 5-vertex (G, S) classes, taken in
    # sorted order, every degree component in each field.  The first 600
    # 6-vertex classes, which ROADMAP item 1 times, take seconds just to
    # generate, so they were checked in full once, outside this suite
    from oracles import nonlinear_witness_by_full_scan
    from test_scan_classes import scan_classes
    share = random.Random(5).sample(sorted(scan_classes.whiskered_duals(544, 5)), 60)
    refuted = 0
    for k, (_, _, dual) in enumerate(share):
        for comp in _components(dual):
            for field in (GF2, GF3, QQ):
                w = nonlinear_witness(comp, field)
                assert w == nonlinear_witness_by_full_scan(comp, field), (k, comp.masks, field)
                refuted += w is not None
    assert refuted == 9  # three components, each in every field


def test_connectivity_matches_the_dense_h0():
    # at |b| = d + 2 every facet of the upper Koszul complex is an edge, and
    # b carries a nonlinear Betti number exactly when the complex has
    # reduced H_0, in every field; families repeat edges and add edges
    # apart from the rest
    rng = random.Random(41)
    disconnected = 0
    for _ in range(400):
        n = rng.randint(2, 7)
        edges = [_mask_of(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 8))]
        edges += rng.choices(edges, k=rng.randint(0, 2))
        if rng.random() < 0.3:
            edges.append(0b11 << n)
        rng.shuffle(edges)
        want = {reduced_homology_by_dense_elimination([list(_bits(e)) for e in edges], p)[0]
                for p in (2, 3, None)}
        assert len(want) == 1
        assert _connected(edges) == (want == {0}), edges
        disconnected += want != {0}
    assert 100 < disconnected < 300


def test_witness_scan_charges_every_lattice_point():
    # the skipped points are built all the same: one scan charges the size
    # of the whole lcm lattice, as the order search's budget always read
    from oracles import field_pool_graph
    refuted = 0
    for i in range(34):
        for comp in _components(alexander_dual_of_edge_ideal(field_pool_graph(i))):
            units = []
            if nonlinear_witness(comp, GF2, units.append) is not None:
                refuted += 1
                assert sum(units) == len(_lcm_lattice(comp.masks)), (i, comp.masks)
    assert refuted == 27


# ---------------------------------------------------------------------------
# componentwise linearity


def test_c5_dual_componentwise_linear():
    dual = alexander_dual_of_edge_ideal(cycle_graph(5))
    report = is_componentwise_linear(dual, GF2)
    assert report.verdict
    # every minimal cover of C5 has three vertices: the scan stops at D = 3,
    # and the components above it are linear too
    assert set(report.per_degree) == {3}
    for d in (4, 5):
        assert nonlinear_witness(squarefree_degree_component(dual, d), GF2) is None


def test_ex38_whiskered_dual_not_componentwise_linear():
    G = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4), (4, 5)])
    W, _ = add_whiskers(G, [5])
    report = is_componentwise_linear(alexander_dual_of_edge_ideal(W), GF2)
    assert not report.verdict
    d, i, b = report.witness
    assert d == 4 and i == 1 and len(b) == 6
    assert report.per_degree == {4: False}


def test_zero_and_unit_componentwise_linear():
    assert is_componentwise_linear(MonomialIdeal(3, ()), GF2).verdict
    assert is_componentwise_linear(MonomialIdeal(3, (M(()),)), GF2).verdict


def test_fixture_fields_agree():
    graphs = [cycle_graph(5), cycle_graph(4)]
    G38 = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4), (4, 5)])
    W38, _ = add_whiskers(G38, [5])
    graphs.append(W38)
    for G in graphs:
        dual = alexander_dual_of_edge_ideal(G)
        tables = [betti_numbers(dual, f).totals for f in (GF2, GF3, QQ)]
        assert tables[0] == tables[1] == tables[2]


# ---------------------------------------------------------------------------
# Hilbert series cross-check


def test_alternating_sum_matches_inclusion_exclusion():
    rng = random.Random(17)
    for _ in range(20):
        I = random_squarefree_ideal(rng, 6, rng.randint(1, 6))
        for f in (GF2, QQ):
            got = hilbert_numerator_from_betti(betti_numbers(I, f))
            assert got == hilbert_numerator_from_gens(I)


def test_ex43_component_has_no_order_so_oracle_inapplicable():
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    W, _ = add_whiskers(G, [4])
    comp = squarefree_degree_component(alexander_dual_of_edge_ideal(W), 3)
    assert find_order(comp) is None


def test_staircase_text_golden():
    dual = alexander_dual_of_edge_ideal(cycle_graph(5))
    assert betti_numbers(dual, GF2).to_text() == \
        "i\\j 3 4 5\n0    5 . .\n1    . 5 .\n2    . . 1\n"
