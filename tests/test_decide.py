import random
import time
from itertools import combinations

import pytest

from edgeideals import (GF2, GF3, QQ, Graph, InputError, add_whiskers,
                        alexander_dual_of_edge_ideal, betti_at, check_evidence,
                        check_koszul_lift, find_order, has_dual_linear_quotients,
                        cycle_graph, delete_vertices, is_cm,
                        is_chordal, is_componentwise_linear, is_sequentially_cm,
                        necessary_scm, nonlinear_witness, path_graph,
                        squarefree_degree_component, sufficient_scm, verify_order)
from edgeideals.decide import (DEFAULT_SEARCH_BUDGET, BettiWitness, ComponentwiseScan,
                               QuotientCertificates, SyzygyWitness, ZeroIdealConvention)
from edgeideals.monomials import Monomial

from oracles import (every_labelled_graph, field_pool_graph, graph_pair,
                     koszul_lift_by_components, necessary_scm_by_full_scan)


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


# ---------------------------------------------------------------------------
# SCM verdicts


def test_c5_scm_with_certificates():
    v = is_sequentially_cm(cycle_graph(5))
    assert v.value and v.field_independent
    assert isinstance(v.evidence, QuotientCertificates)
    for q in v.evidence.per_degree.values():
        assert verify_order(q)


def test_c4_not_scm_with_witness():
    v = is_sequentially_cm(cycle_graph(4))
    assert not v.value
    assert isinstance(v.evidence, BettiWitness)
    assert v.evidence.degree == 2 and v.evidence.index == 1
    assert v.evidence.multidegree == frozenset({0, 1, 2, 3})
    # re-check the witness independently
    comp = squarefree_degree_component(alexander_dual_of_edge_ideal(cycle_graph(4)), 2)
    assert betti_at(comp, Monomial(v.evidence.multidegree), 1, GF2) == 1


def test_ex39_whiskered_scm_true():
    G = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4), (1, 5), (2, 5)])
    W, _ = add_whiskers(G, [5])
    assert is_sequentially_cm(W).value


def test_edgeless_convention():
    v = is_sequentially_cm(Graph(4))
    assert v.value and isinstance(v.evidence, ZeroIdealConvention)
    assert is_cm(Graph(4)).value


def test_cycles_scm_iff_three_or_five():
    for n in range(3, 8):
        expected = n in (3, 5)
        assert is_sequentially_cm(cycle_graph(n)).value is expected


def test_scm_verdict_field_passthrough():
    v = is_sequentially_cm(cycle_graph(4), GF3)
    assert v.field == GF3 and not v.value


# ---------------------------------------------------------------------------
# CM verdicts


def test_whisker_everything_is_cm():
    rng = random.Random(3)
    for _ in range(12):
        G = random_graph(rng, rng.randint(1, 7), rng.choice([0.2, 0.5]))
        W, _ = add_whiskers(G, range(G.n))
        v = is_cm(W)
        assert v.value and v.unmixed


def test_path3_scm_but_not_cm():
    v = is_cm(path_graph(3))
    assert not v.value and v.unmixed is False
    assert is_sequentially_cm(path_graph(3)).value


def test_single_edge_cm():
    assert is_cm(Graph(2, [(0, 1)])).value


def test_cm_implies_scm_and_unmixed():
    rng = random.Random(5)
    for _ in range(30):
        G = random_graph(rng, rng.randint(1, 6), 0.4)
        cm = is_cm(G)
        if cm.value:
            assert is_sequentially_cm(G).value
            assert cm.unmixed


# ---------------------------------------------------------------------------
# sufficient conditions


def test_sufficient_rule_order():
    C4 = cycle_graph(4)
    hit = sufficient_scm(C4, [0, 2])
    assert hit.rule == "vertex-cover" and hit.claim == "C3.4"
    hit = sufficient_scm(C4, [0])
    assert hit.rule == "chordal-remainder" and hit.claim == "T3.2"
    C5 = cycle_graph(5)
    assert sufficient_scm(C5, []).rule == "five-cycle-remainder"
    # a six-cycle remainder leaves every condition silent
    G = Graph(7, list(cycle_graph(6).edges()) + [(0, 6)])
    assert sufficient_scm(G, [6]) is None


def test_sufficient_size_bound_subsumed_by_chordal():
    # C3.5 follows from T3.2: at most three vertices remain, and a graph on
    # at most three vertices is edgeless or chordal
    pairs = 0
    for G in every_labelled_graph(5):
        for k in range(max(0, G.n - 3), G.n + 1):
            for S in combinations(range(G.n), k):
                assert sufficient_scm(G, S).rule in ("vertex-cover", "chordal-remainder")
                pairs += 1
    assert pairs == 27_659


def test_sufficient_implies_scm():
    rng = random.Random(11)
    fired = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        G = random_graph(rng, n, 0.4)
        S = frozenset(v for v in range(n) if rng.random() < 0.5)
        hit = sufficient_scm(G, S)
        if hit is not None:
            W, _ = add_whiskers(G, S)
            assert is_sequentially_cm(W).value
            fired += 1
    assert fired >= 20


# ---------------------------------------------------------------------------
# necessary condition and the Koszul lift


def test_necessary_c4_witness():
    G = cycle_graph(4)
    w = necessary_scm(G, [])
    assert w.base_degree == 2 and w.index == 1
    assert w.multidegree == frozenset({0, 1, 2, 3})
    assert w.lifted == w.multidegree and w.lifted_degree == 2


def test_necessary_none_for_chordal_remainder():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 7)
        G = random_graph(rng, n, 0.4)
        S = frozenset(v for v in range(n) if rng.random() < 0.4)
        if is_chordal(delete_vertices(G, S)).chordal:
            assert necessary_scm(G, S) is None


def test_necessary_ex43_lift():
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    S = frozenset({4})
    w = necessary_scm(G, S)
    assert w.base_degree == 2 and w.index == 1
    assert w.multidegree == frozenset({0, 1, 2, 3})
    assert w.lifted == frozenset({0, 1, 2, 3, 4}) and w.lifted_degree == 3
    assert check_koszul_lift(G, S, w)
    # the lifted syzygy sits in total degree five
    W, _ = add_whiskers(G, S)
    comp = squarefree_degree_component(alexander_dual_of_edge_ideal(W), 3)
    assert betti_at(comp, Monomial(w.lifted), 1, GF2) == 1


def test_lift_holds_for_random_witnesses():
    rng = random.Random(17)
    found = 0
    while found < 12:
        n = rng.randint(4, 7)
        G = random_graph(rng, n, rng.choice([0.3, 0.5]))
        S = frozenset(v for v in range(n) if rng.random() < 0.3)
        w = necessary_scm(G, S)
        if w is None:
            continue
        for f in (GF2, QQ):
            assert check_koszul_lift(G, S, w, f)
        W, _ = add_whiskers(G, S)
        assert not is_sequentially_cm(W).value
        found += 1


def test_lift_refuses_a_witness_on_the_linear_strand():
    # EX4.3's remainder is C4, whose degree-3 dual component holds all four
    # 3-subsets: at b = {0, 1, 2, 3} its upper Koszul complex is four points,
    # so beta_{1,b} = 3, but |b| = 3 + 1 puts it on the linear strand
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    w = SyzygyWitness(3, 1, frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 3, 4}))
    assert not check_koszul_lift(G, {4}, w)


def test_lift_validates_inputs():
    G = cycle_graph(4)
    w = necessary_scm(G, [])
    with pytest.raises(InputError):
        check_koszul_lift(G, [0], w)  # witness does not match this S
    # EX4.3 with S = {4}: a vertex outside 0..4 is out of range, not in S
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    for v in (9, -1):
        b = frozenset({0, 1, 2, v})
        with pytest.raises(InputError, match=f"vertex {v} out of range for n=5"):
            check_koszul_lift(G, {4}, SyzygyWitness(2, 1, b, b | {4}))
    b = frozenset({0, 1, 2, 4})
    with pytest.raises(InputError, match="witness multidegree hits a whiskered vertex"):
        check_koszul_lift(G, {4}, SyzygyWitness(2, 1, b, b))


def _tampered(G, S, w):
    """The witness w with b shifted one step along G minus S, and with its
    base degree one off."""
    rest = [v for v in range(G.n) if v not in S]
    shift = frozenset(rest[(rest.index(v) + 1) % len(rest)] for v in w.multidegree)
    if shift != w.multidegree:
        yield SyzygyWitness(w.base_degree, w.index, shift, shift | frozenset(S))
    for d in (w.base_degree - 1, w.base_degree + 1):
        if d >= 0:
            yield SyzygyWitness(d, w.index, w.multidegree, w.lifted)


def _agree_with_oracle(G, S, w, f):
    want = koszul_lift_by_components(G, S, w, f)
    assert check_koszul_lift(G, S, w, f) == want, (G, S, w, f)
    return want


def test_lift_matches_the_component_oracle():
    # the witnesses of the T4.1 sampler, of every labelled (G, S) on at most
    # five vertices, and both kinds of tampered witness, in three fields
    from edgeideals.harness import _sample_plain
    rng = random.Random(2026)
    pairs = [graph_pair(*_sample_plain(rng, 7)) for _ in range(3000)]
    pairs += [(G, S) for G in every_labelled_graph(5)
              for k in range(G.n + 1) for S in combinations(range(G.n), k)]
    held = refused = 0
    for G, S in pairs:
        for f in (GF2, GF3, QQ):
            w = necessary_scm(G, S, f)
            if w is None:
                continue
            assert _agree_with_oracle(G, S, w, f)
            held += 1
            for bad in _tampered(G, S, w):
                refused += not _agree_with_oracle(G, S, bad, f)
    assert held > 1000 and refused > 2000


def test_lift_check_builds_no_graph_ideal_or_component(monkeypatch):
    # the lift check works on G's adjacency masks alone
    from edgeideals import Campaign, MonomialIdeal, harness, monomials, run_campaign
    import oracles
    lifts = []
    lift = harness.check_koszul_lift
    monkeypatch.setattr(harness, "check_koszul_lift", lambda *a: lifts.append(a) or lift(*a))
    assert run_campaign(Campaign("T4.1", trials=30, max_n=7, seed=0,
                                 fields=(GF2, GF3, QQ))).ok
    monkeypatch.undo()
    built = []
    init, from_adj = Graph.__init__, Graph.__dict__["_from_adj"].__func__
    from_canonical = MonomialIdeal.__dict__["_from_canonical"].__func__
    component = squarefree_degree_component

    def counted(name, fn):
        return lambda *a, **k: built.append(name) or fn(*a, **k)
    monkeypatch.setattr(Graph, "__init__", counted("Graph", init))
    monkeypatch.setattr(Graph, "_from_adj", classmethod(counted("Graph", from_adj)))
    monkeypatch.setattr(MonomialIdeal, "_from_canonical",
                        classmethod(counted("MonomialIdeal", from_canonical)))
    for module in (monomials, oracles):
        monkeypatch.setattr(module, "squarefree_degree_component",
                            counted("component", component))
    for args in lifts:
        assert check_koszul_lift(*args)
    assert built == [] and len(lifts) == 90
    # the counters see the construction through whole objects
    assert koszul_lift_by_components(*lifts[0])
    assert {"Graph", "MonomialIdeal", "component"} <= set(built)


def test_lift_check_is_bounded():
    # a perfect matching on 16 vertices has 2^8 minimal covers, each a facet
    # of the complex at V in degree 8: past the bound of 20000 >> 8 = 78
    # facets the check raises before it ranks anything
    from edgeideals import SearchBudgetExceeded
    G = Graph(16, [(2 * i, 2 * i + 1) for i in range(8)])
    V = frozenset(range(16))
    with pytest.raises(SearchBudgetExceeded, match="more than 78 generators divide x"):
        check_koszul_lift(G, (), SyzygyWitness(8, 2, V, V))


def test_lift_check_stops_the_cover_walk_at_the_bound():
    # a perfect matching on 40 vertices has 2^20 minimal covers; the walk
    # is lazy, so the check raises after 20000 >> 20 = 0 facets, not after
    # walking every cover
    from edgeideals import SearchBudgetExceeded
    G = Graph(40, [(2 * i, 2 * i + 1) for i in range(20)])
    V = frozenset(range(40))
    start = time.perf_counter()
    with pytest.raises(SearchBudgetExceeded, match="more than 0 generators divide x"):
        check_koszul_lift(G, (), SyzygyWitness(20, 2, V, V))
    assert time.perf_counter() - start < 0.1


def test_necessary_matches_the_full_scan_on_every_sampler():
    # the edgeless and linear-quotients shortcuts must return exactly the
    # first witness of the full homology scan, in every field
    from edgeideals.harness import _CLAIMS
    # the samplers repeat pairs (G, S): scan each pair once per field
    scans = {}

    def full_scan(G, S, f):
        key = (G.adj, frozenset(S), f)
        if key not in scans:
            scans[key] = necessary_scm_by_full_scan(G, S, f)
        return scans[key]
    witnesses = {}
    for k, (claim, (sampler, _, _)) in enumerate(sorted(_CLAIMS.items())):
        rng = random.Random(7000 + k)
        for _ in range(300):
            G, S = graph_pair(*sampler(rng, 7))
            for f in (GF2, GF3, QQ):
                w = necessary_scm(G, S, f)
                assert w == full_scan(G, S, f), (claim, G, S, f)
                witnesses[claim] = witnesses.get(claim, 0) + (w is not None)
    assert witnesses["C4.2"] == 900 and witnesses["T3.2"] > 0 and witnesses["T4.1"] > 0
    found = 0
    for n in range(1, 6):
        slots = list(combinations(range(n), 2))
        for bits in range(1 << len(slots)):
            G = Graph(n, [slots[i] for i in range(len(slots)) if bits >> i & 1])
            for f in (GF2, GF3, QQ):
                w = necessary_scm(G, (), f)
                assert w == necessary_scm_by_full_scan(G, frozenset(), f), (G, f)
                found += w is not None
    assert found == 219


def test_necessary_builds_nothing_for_an_edgeless_remainder(monkeypatch):
    import edgeideals.decide
    import edgeideals.quotients

    def refuse(G):
        raise AssertionError("built the dual of an edgeless remainder")
    monkeypatch.setattr(edgeideals.decide, "alexander_dual_of_edge_ideal", refuse)
    monkeypatch.setattr(edgeideals.quotients, "alexander_dual_of_edge_ideal", refuse)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    for G, S in ((Graph(3, []), ()), (star, {0}), (star, {0, 1, 2, 3}), (cycle_graph(4), {0, 2})):
        for f in (GF2, GF3, QQ):
            assert necessary_scm(G, S, f) is None


def test_necessary_builds_nothing_for_a_chordal_or_five_cycle_remainder(monkeypatch):
    import edgeideals.decide
    import edgeideals.quotients

    def refuse(*args, **kwargs):
        raise AssertionError("built a graph, dual or search for a theorem-settled remainder")
    for module, name in ((edgeideals.decide, "alexander_dual_of_edge_ideal"),
                         (edgeideals.quotients, "alexander_dual_of_edge_ideal"),
                         (edgeideals.decide, "has_dual_linear_quotients"),
                         (edgeideals.decide, "_delete_adj")):
        monkeypatch.setattr(module, name, refuse)
    c5_tail = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 6)])
    k4_tail = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    settled = (
        (path_graph(4), ()),
        (k4_tail, ()),
        (cycle_graph(4), {0}),
        (Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4)]), ()),
        (cycle_graph(5), ()),
        (c5_tail, {5}),  # a five-cycle and an isolated vertex
    )
    for G, S in settled:
        for f in (GF2, GF3, QQ):
            assert necessary_scm(G, S, f) is None, (G, S, f)
    # a five-cycle with a pendant edge is neither, so it is searched
    with pytest.raises(AssertionError, match="theorem-settled"):
        necessary_scm(c5_tail, {6})
    monkeypatch.undo()
    for G, S in settled:
        for f in (GF2, GF3, QQ):
            assert necessary_scm_by_full_scan(G, frozenset(S), f) is None


def test_one_search_per_graph_gives_every_field_its_single_field_result():
    import json
    from edgeideals.decide import _decide
    from edgeideals.harness import _CLAIMS, rp2_sd
    fields = (GF2, GF3, QQ)
    sampler, hypothesis, _ = _CLAIMS["T4.1"]
    rng = random.Random(41)
    pairs = [graph_pair(*sampler(rng, 7)) for _ in range(40)]
    failing = []
    while len(failing) < 12:
        adj, smask = sampler(rng, 7)
        if hypothesis(adj, smask):
            failing.append(graph_pair(adj, smask))
    pairs += failing
    for G, S in pairs:
        assert _decide(G, fields, S) == tuple(necessary_scm(G, S, f) for f in fields), (G, S)
    graphs = [rp2_sd()] + [field_pool_graph(i) for i in range(6)]
    graphs += [add_whiskers(G, S)[0] for G, S in failing + pairs[:12]]
    for G in graphs:
        for cm, single in ((False, is_sequentially_cm), (True, is_cm)):
            for f, v in zip(fields, _decide(G, fields, cm=cm)):
                w = single(G, f)
                assert json.dumps(v.to_json(G.labels)) == json.dumps(w.to_json(G.labels))
                assert (v.value, v.field, v.notes) == (w.value, f, w.notes)


def test_necessary_scans_when_the_search_overruns(monkeypatch):
    import edgeideals.decide
    from edgeideals.harness import ex43_pair
    G, S = ex43_pair()
    full = {f: necessary_scm(G, S, f) for f in (GF2, QQ)}
    assert full[GF2] is not None
    monkeypatch.setattr(edgeideals.decide, "DEFAULT_SEARCH_BUDGET", 0)
    assert has_dual_linear_quotients(delete_vertices(G, S), budget=0).verdict is None
    scans = []
    real = edgeideals.decide._scan_open_degrees
    monkeypatch.setattr(edgeideals.decide, "_scan_open_degrees",
                        lambda report, f: scans.append(f) or real(report, f))
    for f, w in full.items():
        assert necessary_scm(G, S, f) == w == necessary_scm_by_full_scan(G, S, f)
    assert scans == [GF2, QQ]


def test_corollary_bad_cycles_desk_scale():
    rng = random.Random(19)
    for length in (4, 6, 7):
        C = cycle_graph(length)
        # pad with two extra vertices joined randomly, then whisker them
        edges = list(C.edges())
        n = length + 2
        for extra in (length, length + 1):
            for v in range(length):
                if rng.random() < 0.4:
                    edges.append((v, extra))
        G = Graph(n, edges)
        S = frozenset({length, length + 1})
        W, _ = add_whiskers(G, S)
        assert not is_sequentially_cm(W).value


def test_componentwise_scan_evidence_never_lies():
    # when the fallback confirms SCM, re-run the homological check directly
    rng = random.Random(23)
    for _ in range(15):
        G = random_graph(rng, rng.randint(1, 6), 0.5)
        v = is_sequentially_cm(G)
        if isinstance(v.evidence, ComponentwiseScan):
            from edgeideals import is_componentwise_linear
            assert is_componentwise_linear(alexander_dual_of_edge_ideal(G), v.field).verdict \
                == v.value


def test_verdict_json_shapes():
    v = is_sequentially_cm(cycle_graph(5))
    data = v.to_json(cycle_graph(5).labels)
    assert data["property"] == "SCM" and data["value"] is True
    assert data["evidence"]["kind"] == "quotient-certificates"
    w = is_cm(cycle_graph(4)).to_json()
    assert w["unmixed"] is True and w["value"] is False


def test_any_cycle_with_one_whisker_is_scm():
    # removing any vertex of a cycle leaves a path, so one whisker suffices
    for n in range(3, 8):
        C = cycle_graph(n)
        W, _ = add_whiskers(C, [0])
        assert is_sequentially_cm(W).value
        assert sufficient_scm(C, [0]).rule == "chordal-remainder"


def test_budget_exhaustion_falls_back_to_homology():
    v = is_sequentially_cm(cycle_graph(4), search_budget=0)
    assert not v.value
    assert isinstance(v.evidence, BettiWitness)
    assert any("budget" in note for note in v.notes)


def test_rp2_sd_depends_on_the_field():
    # Katzman's example: CM over GF(3) and Q but not over GF(2); a GF(2)
    # Betti witness rules out dual linear quotients in every field
    from edgeideals.harness import rp2_sd
    G = rp2_sd()
    assert not is_cm(G, GF2).value
    for field in (GF3, QQ):
        v = is_cm(G, field)
        assert v.value and isinstance(v.evidence, ComponentwiseScan)
        assert v.notes == ("componentwise linear without dual linear quotients: degree 28 "
                           "has a nonlinear Betti number over GF(2), so the verdict depends "
                           "on the field",)
    report = has_dual_linear_quotients(G, budget=DEFAULT_SEARCH_BUDGET)
    assert report.verdict is False and not report.unknown
    assert set(report.witnesses) == {report.failing_degree}
    w = report.witnesses[report.failing_degree]
    assert w.degree == report.failing_degree and len(w.multidegree) != w.degree + w.index
    comp = squarefree_degree_component(alexander_dual_of_edge_ideal(G), w.degree)
    assert betti_at(comp, Monomial(w.multidegree), w.index, GF2) > 0


def test_dlq_true_implies_componentwise_linear():
    from edgeideals import GF2, has_dual_linear_quotients, is_componentwise_linear
    rng = random.Random(31)
    count = 0
    for _ in range(25):
        G = random_graph(rng, rng.randint(1, 6), 0.4)
        if has_dual_linear_quotients(G).verdict is True:
            dual = alexander_dual_of_edge_ideal(G)
            assert is_componentwise_linear(dual, GF2).verdict
            count += 1
    assert count >= 10


def test_exhaustive_engine_agreement_small():
    # the certificate engine and the homology engine must give the same
    # SCM verdict on every graph with up to five vertices; a divergence is
    # either a regression or a genuinely new small example worth a look
    from edgeideals import (GF2, has_dual_linear_quotients,
                            is_componentwise_linear)
    for n in range(1, 6):
        slots = list(combinations(range(n), 2))
        for bits in range(1 << len(slots)):
            G = Graph(n, [slots[i] for i in range(len(slots)) if bits >> i & 1])
            dlq = has_dual_linear_quotients(G).verdict
            cwl = is_componentwise_linear(alexander_dual_of_edge_ideal(G), GF2).verdict
            assert dlq == cwl, f"engines disagree on {G!r}: dlq={dlq} cwl={cwl}"


def test_verdicts_invariant_under_search_budget():
    rng = random.Random(999)
    for _ in range(60):
        n = rng.randint(1, 6)
        G = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        v0 = is_sequentially_cm(G, search_budget=0)
        v2 = is_sequentially_cm(G)
        assert v0.value == v2.value


# ---------------------------------------------------------------------------
# re-checking evidence


def test_check_evidence_accepts_every_verdict_and_certificate():
    rng = random.Random(41)
    kinds = set()
    for _ in range(30):
        G = random_graph(rng, rng.randint(0, 6), rng.choice([0.3, 0.6]))
        for decide in (is_sequentially_cm, is_cm):
            for field, budget in ((GF2, 20_000), (GF3, 0), (QQ, 20_000)):
                v = decide(G, field, search_budget=budget)
                kinds.add(v.evidence.kind)
                assert check_evidence(G, v.to_json(G.labels)) == (True, "verdict verified")
        for q in has_dual_linear_quotients(G).certificates().values():
            assert check_evidence(G, q.to_json(G.labels)) == (True, "linear quotients verified")
    assert kinds == {"zero-ideal-convention", "quotient-certificates",
                     "componentwise-scan", "betti-witness"}


def test_check_evidence_ties_each_certificate_to_its_key():
    # the star K_{1,3} has minimal covers of one and three vertices, so its
    # verdict certifies degrees 1..3
    G = Graph(4, [(0, 1), (0, 2), (0, 3)])
    certs = has_dual_linear_quotients(G).certificates()
    data = is_sequentially_cm(G).to_json(G.labels)
    assert sorted(data["evidence"]["per_degree"]) == ["1", "2", "3"]
    data["evidence"]["per_degree"]["2"], data["evidence"]["per_degree"]["3"] = (
        certs[3].to_json(G.labels), certs[2].to_json(G.labels))
    ok, why = check_evidence(G, data)
    assert not ok and why.startswith("degree 2:")
    with pytest.raises(InputError):
        check_evidence(G, [data])


def test_check_evidence_accepts_every_dlq_report():
    rng = random.Random(43)
    graphs = [cycle_graph(4), Graph(0), Graph(3)]
    graphs += [random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.6])) for _ in range(30)]
    verdicts = set()
    for G in graphs:
        for budget in (20_000, 0):
            for stop in (False, True):
                report = has_dual_linear_quotients(G, budget=budget, stop_at_failure=stop)
                verdicts.add(report.verdict)
                data = report.to_json(G.labels)
                assert check_evidence(G, data) == (True, "report verified")
    # C4's degree-2 component has no order: a GF(2) witness within the
    # budget, which a plain null may replace, and an unknown degree with none
    C4 = cycle_graph(4)
    data = has_dual_linear_quotients(C4, budget=20_000).to_json()
    assert data["per_degree"]["2"] == {"kind": "betti-witness", "degree": 2, "index": 1,
                                       "multidegree": ["x1", "x2", "x3", "x4"]}
    data["per_degree"]["2"] = None
    assert check_evidence(C4, data) == (True, "report verified")
    assert has_dual_linear_quotients(C4, budget=0).to_json()["unknown"] == [2]
    assert verdicts == {True, False, None}


# ---------------------------------------------------------------------------
# stopping at D, the largest minimal-cover size


def _lemma_cases():
    """Graphs of at most 10 vertices: each campaign sampler's G and G with
    its S whiskered, plus random partly whiskered graphs."""
    from edgeideals.harness import (_sample_all, _sample_bad_cycle, _sample_cover_biased,
                                    _sample_five_cycle, _sample_near_all, _sample_plain)
    rng = random.Random(97)
    graphs = []
    for sample in (_sample_plain, _sample_cover_biased, _sample_near_all, _sample_all,
                   _sample_five_cycle, _sample_bad_cycle):
        for _ in range(10):
            G, S = graph_pair(*sample(rng, 7))
            graphs += [H for H in (G, add_whiskers(G, S)[0]) if H.n <= 10]
    for _ in range(30):
        n = rng.randint(4, 8)
        G = random_graph(rng, n, rng.choice([0.3, 0.5]))
        graphs.append(add_whiskers(G, rng.sample(range(n), rng.randint(1, min(n, 10 - n))))[0])
    return graphs


def test_stopping_at_d_agrees_with_every_degree():
    # the lemma of quotients._dual_orders: each component above D
    # inherits linear quotients and a linear resolution from the degree-D
    # one, so the report and the scan, which stop at D, answer as the full
    # computation up to the vertex count does
    inherited = {"order": 0, GF2: 0, QQ: 0}
    for G in _lemma_cases():
        dual = alexander_dual_of_edge_ideal(G)
        top = dual.max_degree
        at_top = squarefree_degree_component(dual, top)
        above = [squarefree_degree_component(dual, d) for d in range(top + 1, G.n + 1)]
        report = has_dual_linear_quotients(G)
        assert sorted(report.per_degree) == list(range(dual.min_degree, top + 1))
        if report.per_degree[top] is not None:
            assert all(find_order(c) is not None for c in above), G
            inherited["order"] += bool(above)
        full = report.verdict and all(find_order(c) is not None for c in above)
        assert report.verdict == full, G
        for field in (GF2, QQ):
            scan = is_componentwise_linear(dual, field)
            assert max(scan.per_degree) <= top
            if nonlinear_witness(at_top, field) is None:
                assert all(nonlinear_witness(c, field) is None for c in above), (G, field)
                inherited[field] += bool(above)
            full = scan.verdict and all(nonlinear_witness(c, field) is None for c in above)
            assert scan.verdict == full, (G, field)
    assert min(inherited.values()) >= 100, inherited


def test_field_pool_verdicts_match_the_recorded_reference():
    # the G(14, 0.3) pool of the benchmark's field workload, with the
    # verdicts recorded in perfbench/reference.json before evidence stopped at D
    import json
    from pathlib import Path
    ref = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json")
                     .read_text())
    for i in range(len(ref["verdicts"]["2"])):
        G = field_pool_graph(i)
        for key, field in (("2", GF2), ("3", GF3), ("q", QQ)):
            assert is_sequentially_cm(G, field).value is (ref["verdicts"][key][i] == "T"), (i, key)


def test_scan_evidence_names_exactly_dmin_to_d():
    # with no search budget the verdict falls back to the homological scan,
    # which stops at D = 4; the same scan carried on to the vertex count,
    # as it was written before, or cut short, does not verify
    G = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)])
    data = is_sequentially_cm(G, GF2, search_budget=0).to_json(G.labels)
    assert data["evidence"] == {"kind": "componentwise-scan", "per_degree": {"4": True}}
    assert check_evidence(G, data) == (True, "verdict verified")
    dual = alexander_dual_of_edge_ideal(G)
    for d in (5, 6):
        assert nonlinear_witness(squarefree_degree_component(dual, d), GF2) is None
    for per in ({"4": True, "5": True, "6": True}, {}):
        data["evidence"]["per_degree"] = per
        assert check_evidence(G, data) == (
            False, "componentwise-scan degrees are not the dual's dmin..D")


def test_scan_of_open_degrees_equals_the_full_scan():
    # the shortcut records each degree with an order as linear and, over
    # GF(2), reuses the search's witness; degree for degree and witness for
    # witness it must answer as the full scan, in every field.  Covered:
    # RP2-SD (refuted over GF(2) only), the 34 graphs of the field pool,
    # every labelled graph with at most five vertices, and budget 0
    from edgeideals.decide import _scan_open_degrees
    from edgeideals.harness import rp2_sd
    from oracles import every_labelled_graph
    cases = [(rp2_sd(), 20_000), (rp2_sd(), 0)]
    cases += [(field_pool_graph(i), 20_000) for i in range(34)]
    cases += [(G, b) for G in every_labelled_graph(5) if G.edge_count() for b in (20_000, 0)]
    seen = {"order": 0, "witness": 0, "unknown": 0}
    for G, budget in cases:
        report = has_dual_linear_quotients(G, budget=budget, stop_at_failure=True)
        if report.verdict is True:
            continue
        seen["order"] += any(q is not None for q in report.per_degree.values())
        seen["witness"] += bool(report.witnesses)
        seen["unknown"] += bool(report.unknown)
        for field in (GF2, GF3, QQ):
            got = _scan_open_degrees(report, field)
            want = is_componentwise_linear(report.dual, field)
            assert (got.per_degree, got.witness) == (want.per_degree, want.witness), (G, budget)
    assert min(seen.values()) >= 20, seen


def test_componentwise_scan_check_scans_every_degree(monkeypatch):
    # verify takes no shortcut: re-checking a componentwise-scan verdict
    # runs the full scan, with homology on every degree dmin..D, also on
    # the degrees the order search settled when the verdict was made.  With
    # no search budget, pool graph 2 has identity orders in degrees 6 and 10
    # and leaves 7..9 unknown
    import edgeideals.decide
    import edgeideals.homology
    G = field_pool_graph(2)
    report = has_dual_linear_quotients(G, budget=0, stop_at_failure=True)
    assert sorted(report.certificates()) == [6, 10] and report.unknown == (7, 8, 9)
    scans, degrees = [], []
    real_scan, real_witness = is_componentwise_linear, edgeideals.homology.nonlinear_witness
    monkeypatch.setattr(edgeideals.decide, "is_componentwise_linear",
                        lambda I, f: scans.append(f) or real_scan(I, f))
    monkeypatch.setattr(edgeideals.homology, "nonlinear_witness", lambda M, f, spend=None:
                        degrees.append(M.min_degree) or real_witness(M, f, spend))
    data = is_sequentially_cm(G, QQ, search_budget=0).to_json(G.labels)
    assert data["evidence"]["kind"] == "componentwise-scan"
    assert scans == [] and degrees == [7, 8, 9]
    degrees.clear()
    assert check_evidence(G, data) == (True, "verdict verified")
    assert scans == [QQ] and degrees == [6, 7, 8, 9, 10]
