import random
from itertools import combinations, permutations

import pytest

from edgeideals import (Graph, InputError, RemainderClass, add_whiskers,
                        classify_remainder, cycle_graph, delete_vertices,
                        format_graph, induced_subgraph, is_chordal, is_unmixed,
                        minimal_vertex_covers, parse_graph, path_graph,
                        vertex_covers_of_size)

from edgeideals.graphs import (_bits, _canonical, _covers_by_size, _elimination_order,
                               _independent_sets, _induces_one_cycle, _least_relabellings,
                               _mask_of, _mask_orbits, _minimal_cover_masks)
from edgeideals.monomials import _order_key, alexander_dual_of_edge_ideal

from oracles import (brute_covers, brute_minimal_covers, classify_by_mcs,
                     elimination_order_by_scan, every_labelled_graph, graph_pair,
                     independent_sets_by_recursion,
                     induces_one_cycle_by_union_find, is_chordal_by_mcs, peo_violation)


def ex38_base():
    return Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4), (4, 5)])


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


# ---------------------------------------------------------------------------
# construction and basic ops


def test_graph_rejects_loops_and_range():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])


def test_induced_subgraph_of_cycle_is_path():
    C5 = cycle_graph(5)
    H = induced_subgraph(C5, [0, 1, 2])
    assert H.n == 3
    assert H.edges() == ((0, 1), (1, 2))
    assert H.labels == ("x1", "x2", "x3")


def test_induced_subgraph_identity():
    G = ex38_base()
    assert induced_subgraph(G, range(G.n)) == G


def test_induced_subgraph_ex38_four_cycle():
    H = induced_subgraph(ex38_base(), [0, 1, 2, 3])
    assert set(H.edges()) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert all(H.degree(v) == 2 for v in range(4))


def test_delete_vertices_cycle_to_path():
    for n in (4, 5, 6):
        H = delete_vertices(cycle_graph(n), [0])
        assert H.n == n - 1 and H.edge_count() == n - 2
        assert is_chordal(H).chordal


def test_delete_nothing():
    G = ex38_base()
    assert delete_vertices(G, []) == G


def test_delete_pendant_recovers_cycle():
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    H = delete_vertices(G, [4])
    assert set(H.edges()) == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_add_whiskers_edge_both_ends():
    G = Graph(2, [(0, 1)])
    W, wm = add_whiskers(G, [0, 1])
    assert W.n == 4
    assert set(W.edges()) == {(0, 1), (0, 2), (1, 3)}
    assert wm.pairs == ((0, 2), (1, 3))
    assert all(W.degree(t) == 1 for _, t in wm.pairs)


def test_add_whiskers_ex38_labels():
    W, wm = add_whiskers(ex38_base(), [5])
    assert W.n == 7
    assert wm.pairs == ((5, 6),)
    assert W.labels[6] == "x7"
    assert W.has_edge(5, 6)


def test_whisker_then_delete_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 8)
        G = random_graph(rng, n, 0.4)
        S = [v for v in range(n) if rng.random() < 0.5]
        W, wm = add_whiskers(G, S)
        out = delete_vertices(W, list(S) + [t for _, t in wm.pairs])
        assert out == delete_vertices(G, S)


def test_reindexing_and_whiskering_match_the_validating_constructor():
    # the mask arithmetic of induced_subgraph, delete_vertices and
    # add_whiskers against Graph(n, edges, labels) on relabelled edges
    rng = random.Random(29)
    for trial in range(300):
        n = rng.randint(0, 12)
        G = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        if trial % 2:
            G = Graph(n, G.edges(), labels=[f"v{rng.randrange(100)}" for _ in range(n)])
        keep = [v for v in range(n) if rng.random() < 0.6]
        gone = [v for v in range(n) if v not in keep]
        new = {v: i for i, v in enumerate(keep)}
        want = Graph(len(keep), [(new[u], new[v]) for u, v in G.edges()
                                 if u in new and v in new],
                     labels=[G.labels[v] for v in keep])
        assert induced_subgraph(G, keep) == want
        assert delete_vertices(G, gone) == want
        S = [v for v in range(n) if rng.random() < 0.4]
        pairs = tuple((b, n + i) for i, b in enumerate(S))
        tips = [f"x{n + i + 1}" for i in range(len(S))]
        W, wm = add_whiskers(G, S)
        assert W == Graph(n + len(S), list(G.edges()) + list(pairs),
                          labels=list(G.labels) + tips)
        assert wm.pairs == pairs


# ---------------------------------------------------------------------------
# chordality


def test_forests_are_chordal():
    rng = random.Random(1)
    for n in range(1, 9):
        # random tree via random parent links
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        res = is_chordal(Graph(n, edges))
        assert res.chordal and res.elimination_order is not None


def test_c4_not_chordal_with_witness():
    res = is_chordal(cycle_graph(4))
    assert not res.chordal
    assert len(res.chordless_cycle) == 4
    assert set(res.chordless_cycle) == {0, 1, 2, 3}


def test_c4_plus_chord_chordal():
    G = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert is_chordal(G).chordal


def _cycle_is_chordless(G, cycle):
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent_on_cycle = (j == i + 1) or (i == 0 and j == k - 1)
            if G.has_edge(cycle[i], cycle[j]) != adjacent_on_cycle:
                return False
    return True


def test_chordality_certificates_self_validate():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 9)
        G = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        res = is_chordal(G)
        if res.chordal:
            assert sorted(res.elimination_order) == list(range(n))
            assert peo_violation(G, res.elimination_order) is None
        else:
            assert _cycle_is_chordless(G, res.chordless_cycle)


def test_elimination_bit_walk_matches_the_scan():
    # the same order, or None, as the scan with all() over each
    # neighbourhood: every labelled graph on <= 5 vertices under every
    # vertex mask, and 20 000 seeded G(7, p) draws under a random mask each
    for G in every_labelled_graph(5):
        for verts in range(1 << G.n):
            assert _elimination_order(G.adj, verts) == \
                elimination_order_by_scan(G.adj, verts), (G, verts)
    rng = random.Random(7707)
    chordal = 0
    for _ in range(20_000):
        G = random_graph(rng, 7, rng.choice([0.2, 0.4, 0.6]))
        verts = rng.getrandbits(7)
        order = _elimination_order(G.adj, verts)
        assert order == elimination_order_by_scan(G.adj, verts), (G, verts)
        chordal += order is not None
    assert 0 < chordal < 20_000


def test_elimination_kernel_matches_the_mcs_oracle():
    # every labelled graph on <= 5 vertices with every S of <= 4 vertices,
    # and draws of every campaign sampler
    from edgeideals.harness import _CLAIMS
    pairs = [(G, frozenset(_bits(s))) for G in every_labelled_graph(5)
             for s in range(1 << G.n) if s.bit_count() <= 4]
    for k, (sampler, _, _) in enumerate(_CLAIMS.values()):
        rng = random.Random(900 + k)
        pairs += [graph_pair(*sampler(rng, 7)) for _ in range(100)]
    # the oracle runs once per distinct remainder, on the rebuilt graph
    oracle = {}
    for G, S in pairs:
        H = delete_vertices(G, sorted(S))
        if H.adj not in oracle:
            oracle[H.adj] = classify_by_mcs(H)
            res = is_chordal(H)
            assert res.chordal == is_chordal_by_mcs(H), H
            if res.chordal:
                assert sorted(res.elimination_order) == list(range(H.n))
                assert peo_violation(H, res.elimination_order) is None
        assert classify_remainder(G, S).value == oracle[H.adj], (G, S)


# ---------------------------------------------------------------------------
# remainder classification


def test_classify_remainder_cases():
    assert classify_remainder(cycle_graph(5), []) is RemainderClass.FIVE_CYCLE
    assert classify_remainder(cycle_graph(6), []) is RemainderClass.OTHER
    assert classify_remainder(Graph(4), []) is RemainderClass.CHORDAL
    # S a vertex cover leaves isolated vertices only
    assert classify_remainder(cycle_graph(4), [0, 2]) is RemainderClass.CHORDAL


def test_classify_remainder_ignores_isolated_for_five_cycle():
    G = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 6)])
    assert classify_remainder(G, [5, 6]) is RemainderClass.FIVE_CYCLE
    # vertex 5 survives S but is isolated once 6 is gone
    assert classify_remainder(G, [6]) is RemainderClass.FIVE_CYCLE


def test_one_cycle_check_matches_union_find_on_every_small_graph():
    # every labelled graph with at most six vertices, on every vertex subset
    # for up to five vertices and on the whole vertex set at six
    for n in range(7):
        slots = list(combinations(range(n), 2))
        subsets = range(1 << n) if n < 6 else [(1 << n) - 1]
        for bits in range(1 << len(slots)):
            G = Graph(n, [slots[i] for i in range(len(slots)) if bits >> i & 1])
            for verts in subsets:
                assert (_induces_one_cycle(G.adj, verts)
                        == induces_one_cycle_by_union_find(G, [v for v in range(n)
                                                               if verts >> v & 1])), (G, verts)


# ---------------------------------------------------------------------------
# covers


def test_c5_covers_of_size_three_match_listed():
    got = vertex_covers_of_size(cycle_graph(5), 3)
    assert got == [frozenset({0, 1, 3}), frozenset({0, 2, 3}), frozenset({0, 2, 4}),
                   frozenset({1, 2, 4}), frozenset({1, 3, 4})]


def test_c5_covers_of_size_four_vs_oracle():
    got = vertex_covers_of_size(cycle_graph(5), 4)
    assert sorted(map(sorted, got)) == sorted(map(sorted, brute_covers(cycle_graph(5), 4)))
    assert len(got) == 5


def test_covers_below_minimum_empty():
    assert vertex_covers_of_size(cycle_graph(5), 2) == []


def test_covers_match_oracle_random():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 8)
        G = random_graph(rng, n, rng.choice([0.2, 0.5]))
        for d in range(n + 1):
            got = sorted(map(sorted, vertex_covers_of_size(G, d)))
            assert got == sorted(map(sorted, brute_covers(G, d)))


def test_minimal_covers_small_cases():
    assert minimal_vertex_covers(Graph(2, [(0, 1)])) == [frozenset({0}), frozenset({1})]
    assert minimal_vertex_covers(cycle_graph(4)) == [frozenset({0, 2}), frozenset({1, 3})]


def test_minimal_covers_ex43_whiskered():
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)],
              labels=("y1", "y2", "y3", "y4", "y"))
    W, _ = add_whiskers(G, [4], tip_labels=("x",))
    got = set(minimal_vertex_covers(W))
    assert got == {frozenset({0, 2, 4}), frozenset({1, 3, 4}),
                   frozenset({0, 2, 5}), frozenset({0, 1, 3, 5})}


def test_minimal_covers_match_oracle_and_exclude_isolated():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 8)
        G = random_graph(rng, n, 0.35)
        got = minimal_vertex_covers(G)
        assert sorted(map(_mask_of, got)) == brute_minimal_covers(G)
        isolated = {v for v in range(G.n) if not G.adj[v]}
        assert all(not (c & isolated) for c in got)
        # antichain
        for a in got:
            for b in got:
                assert a == b or not a < b


def test_minimal_cover_masks_match_oracle_on_every_small_graph():
    # the enumeration visits only maximal independent sets; every labelled
    # graph with at most six vertices gets the oracle's covers in canonical
    # order (by size, then lexicographic on sorted vertices)
    for G in every_labelled_graph(6):
        want = sorted(brute_minimal_covers(G), key=_order_key)
        assert _minimal_cover_masks(G.adj, (1 << G.n) - 1) == want, G


def test_cover_enumeration_is_canonical_without_sorting():
    # _covers_by_size and _minimal_cover_masks rely on the enumeration order
    # of _independent_sets; the reference sort lives here
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 10)
        G = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        active = rng.getrandbits(n) | 1 << rng.randrange(n)
        every = _covers_by_size(G.adj, active, n)
        for size, masks in every.items():
            assert masks == sorted(masks, key=_order_key), (G, active, size)
        # a top size prunes the larger covers and keeps the rest as they were
        top = rng.randint(-1, n)
        assert _covers_by_size(G.adj, active, top) == {
            size: masks for size, masks in every.items() if size <= top}
        minimal = _minimal_cover_masks(G.adj, active)
        assert minimal == sorted(minimal, key=_order_key)


def test_stack_walk_matches_the_recursive_walk_on_every_small_graph():
    # the same masks in the same order as the recursive generator, for every
    # labelled graph with at most five vertices, every active mask, every
    # need and both modes
    for G in every_labelled_graph(5):
        for active in range(1 << G.n):
            for need in range(active.bit_count() + 2):
                for maximal in (False, True):
                    assert list(_independent_sets(G.adj, active, need, maximal)) == list(
                        independent_sets_by_recursion(G.adj, active, need, maximal)), \
                        (G, active, need, maximal)


def test_stack_walk_matches_the_recursive_walk_on_random_graphs():
    rng = random.Random(31)
    for k in range(500):
        n = rng.randint(6, 16)
        if k % 3 == 0:
            G, _ = add_whiskers(random_graph(rng, n // 2, rng.choice([0.3, 0.5])),
                                range(n // 2))
        else:
            G = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        active = (1 << G.n) - 1 if k % 2 else rng.getrandbits(G.n)
        need = rng.randint(0, active.bit_count() // 2 + 1) if k % 5 else 0
        for maximal in (False, True):
            assert list(_independent_sets(G.adj, active, need, maximal)) == list(
                independent_sets_by_recursion(G.adj, active, need, maximal)), \
                (G, active, need, maximal)


def _walks_agree(adj, active):
    for need in range(active.bit_count() + 2):
        for maximal in (False, True):
            assert list(_independent_sets(adj, active, need, maximal)) == list(
                independent_sets_by_recursion(adj, active, need, maximal)), \
                (adj, active, need, maximal)


def test_walk_settles_tips_as_the_recursive_walk_branches():
    # a tip, pendant in the active set with a lower neighbour, is settled by
    # its base; every need, both modes, against the branching recursion
    # 0 is pendant with the higher neighbour 1, so it is branched on; 2 is a tip
    P = path_graph(3)
    _walks_agree(P.adj, 0b111)
    # K2 components, each the base 2i and its tip 2i + 1
    K = Graph(6, [(0, 1), (2, 3), (4, 5)])
    _walks_agree(K.adj, 0b111111)
    # a base with two tips (0 with 3 and 4), beside a triangle through 0
    T = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])
    _walks_agree(T.adj, 0b11111)
    # 3 has degree 2, but is pendant inside an active set without 2
    C = cycle_graph(4)
    _walks_agree(C.adj, 0b1011)
    # whiskered random graphs with a partial S, on every active mask or a
    # random one
    rng = random.Random(41)
    for k in range(60):
        n = rng.randint(3, 7)
        G = random_graph(rng, n, rng.choice([0.3, 0.5]))
        W, _ = add_whiskers(G, [v for v in range(n) if rng.random() < 0.6])
        if W.n <= 8:
            for active in range(1 << W.n):
                _walks_agree(W.adj, active)
        else:
            _walks_agree(W.adj, (1 << W.n) - 1 if k % 2 else rng.getrandbits(W.n))


def test_whiskered_cycle_covers_count_lucas_numbers():
    # the maximal independent sets of W(C_k) are I plus the tips of the
    # bases outside I, one per independent set I of C_k, so there are L_k;
    # each cover holds exactly one vertex of every base-tip pair (b, k + b)
    lucas = [2, 1]
    while len(lucas) <= 20:
        lucas.append(lucas[-1] + lucas[-2])
    for k in range(3, 21):
        W, _ = add_whiskers(cycle_graph(k), range(k))
        covers = _minimal_cover_masks(W.adj, (1 << W.n) - 1)
        assert len(covers) == lucas[k], k
        assert all((c >> b & 1) + (c >> (k + b) & 1) == 1 for c in covers for b in range(k))
    assert lucas[20] == 15_127


# the minimal covers of W(C_k), k = 3..16, then of the 24 fully whiskered
# graphs of perfbench's whiskered workload at seed 1, one line of masks per
# graph, recorded before the cover walk settled whisker tips
WHISKERED_COVERS_SHA256 = "32a8e38a38be085a1407ac488893caed414d77edcb0cdd5b09f1e8ff99b876f8"


def test_whiskered_minimal_covers_pinned():
    import hashlib
    import importlib.util
    from pathlib import Path
    script = Path(__file__).resolve().parent.parent / "scripts" / "verify_payloads.py"
    spec = importlib.util.spec_from_file_location("verify_payloads", script)
    verify_payloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(verify_payloads)
    graphs = [add_whiskers(cycle_graph(k), range(k))[0] for k in range(3, 17)]
    graphs += verify_payloads.whiskered_graphs(1, 24)
    digest = hashlib.sha256()
    for W in graphs:
        masks = _minimal_cover_masks(W.adj, (1 << W.n) - 1)
        digest.update((",".join(map(str, masks)) + "\n").encode())
    assert digest.hexdigest() == WHISKERED_COVERS_SHA256


def test_unmixed_top_component_is_the_dual():
    # the lemma at quotients._dual_orders: on an unmixed graph the
    # covers of size D are the minimal covers, in the same order; 7 333 of
    # the 33 868 labelled graphs with at most six vertices are unmixed
    unmixed = 0
    for G in every_labelled_graph(6):
        dual = alexander_dual_of_edge_ideal(G)
        if dual.is_equigenerated:
            unmixed += 1
            full = (1 << G.n) - 1
            assert _covers_by_size(G.adj, full, dual.max_degree)[dual.max_degree] == \
                list(dual.masks), G
    assert unmixed == 7333


def test_every_cover_contains_a_minimal_cover():
    rng = random.Random(17)
    for _ in range(15):
        G = random_graph(rng, rng.randint(1, 7), 0.5)
        minimal = minimal_vertex_covers(G)
        for d in range(G.n + 1):
            for c in vertex_covers_of_size(G, d):
                assert any(m <= c for m in minimal)


def test_is_unmixed():
    assert not is_unmixed(path_graph(3))
    assert is_unmixed(cycle_graph(4))
    rng = random.Random(19)
    for _ in range(10):
        G = random_graph(rng, rng.randint(1, 6), 0.5)
        W, _ = add_whiskers(G, range(G.n))
        assert is_unmixed(W)
        assert all(len(c) == G.n for c in minimal_vertex_covers(W))


# ---------------------------------------------------------------------------
# cover decompositions


def test_whisker_cover_decomposition():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 7)
        G = random_graph(rng, n, 0.4)
        S = [v for v in range(n) if rng.random() < 0.5]
        W, wm = add_whiskers(G, S)
        if not wm.pairs:
            continue
        y, x = wm.pairs[-1]
        assert x == W.n - 1  # the last tip carries the top index
        no_x = delete_vertices(W, [x])
        no_xy = delete_vertices(W, [x, y])

        def lift_no_xy(c):
            return frozenset(v if v < y else v + 1 for v in c)

        for d in range(W.n + 1):
            left = set(vertex_covers_of_size(W, d))
            right = {frozenset(c) | {x} for c in vertex_covers_of_size(no_x, d - 1)} | \
                    {lift_no_xy(c) | {y} for c in vertex_covers_of_size(no_xy, d - 1)}
            assert left == right


def test_neighborhood_cover_decomposition():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(2, 8)
        G = random_graph(rng, n, 0.4)
        x = rng.randrange(n)
        nbrs = frozenset(_bits(G.adj[x]))
        for d in range(n + 1):
            for c in vertex_covers_of_size(G, d):
                assert x in c or nbrs <= c


# ---------------------------------------------------------------------------
# text format


def test_parse_format_roundtrip():
    G = ex38_base()
    assert parse_graph(format_graph(G)) == G


def test_parse_comments_and_whitespace():
    text = "# a comment\n3 2\n\n1 2\n# another\n 2 3 \n"
    G = parse_graph(text)
    assert G.n == 3 and set(G.edges()) == {(0, 1), (1, 2)}


@pytest.mark.parametrize("text", [
    "",
    "2\n",
    "2 1\n1 1\n",          # loop
    "2 2\n1 2\n2 1\n",     # duplicate
    "2 1\n1 3\n",          # out of range
    "2 2\n1 2\n",          # wrong edge count
    "x y\n",
])
def test_parse_errors(text):
    with pytest.raises(InputError):
        parse_graph(text)


def test_parse_fuzz_raises_only_input_error(tmp_path):
    rng = random.Random(5)
    alphabet = "0123456789 \n#ab-"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        try:
            parse_graph(text)
        except InputError:
            pass


def test_relabellings_of_a_canonical_form_are_its_automorphisms():
    # on every labelled graph with at most four vertices and random ones on
    # 5-6: the relabellings reaching the canonical form C, asked of C
    # itself, are the permutations of all n! that fix C; their count is the
    # labelled graph's |Aut|; and the orbit representatives are the least
    # mask of each orbit of those permutations, one per orbit
    rng = random.Random(26)
    graphs = list(every_labelled_graph(4))
    graphs += [random_graph(rng, rng.randint(5, 6), rng.choice([0.2, 0.5, 0.8]))
               for _ in range(60)]
    for G in graphs:
        n = G.n
        C, _, count = _canonical(G.adj, 0)
        edges = {(u, v) for u in range(n) for v in _bits(C[u])}
        fixing = {perm for perm in permutations(range(n))
                  if all((perm[u], perm[v]) in edges for u, v in edges)}
        best, smask, seqs = _least_relabellings(C, 0)
        assert (best, smask) == (C, 0)
        assert {tuple(seq) for seq in seqs} == fixing and len(seqs) == count, G
        orbits = {frozenset(_mask_of(perm[v] for v in _bits(m)) for perm in fixing)
                  for m in range(1 << n)}
        assert _mask_orbits(seqs, n) == sorted(min(orbit) for orbit in orbits), G
