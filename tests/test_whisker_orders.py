"""Whisker orders: the closed-form colons of full whiskerings (L2 at
``quotients._OrderSearch._whisker_bases``) and of the whisker decomposition
(L1 at ``quotients._whisker_seq``) against the one-pass walk, the reuse of
GF(2) witnesses in every field, and the decide outputs on whiskered and
field graphs, pinned by their bytes."""

import contextlib
import hashlib
import importlib.util
import io
import random
import sys
from pathlib import Path

import pytest

import edgeideals.homology as homology
import edgeideals.quotients as quotients
from edgeideals import (GF3, QQ, Graph, add_whiskers, check_evidence, cli, cycle_graph,
                        format_graph, has_dual_linear_quotients, is_cm,
                        is_componentwise_linear, is_sequentially_cm)
from edgeideals.decide import DEFAULT_SEARCH_BUDGET, _scan_open_degrees
from edgeideals.graphs import _bits, _default_labels
from edgeideals.harness import _classes, rp2_sd
from edgeideals.quotients import _colon_walk, _OrderSearch
from oracles import field_pool_graph

ROOT = Path(__file__).resolve().parents[1]


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


# SHA-256 over "<exit code>\n<stdout>" of the decide argv and then of
# `lin-quotients --json`, for every op of the benchmark's set-ups
# ("field", 1, 1.0), ("whiskered", 1, 1.0) and ("whiskered", 2, 1.0), in
# set-up order; recorded before whisker orders were certified in closed form
BENCH_OPS_SHA256 = "5d96b9baa5ec1a16ad0edf9aab646b5360e4b05ab323d6e5c83637cce1a0b5b3"


def test_benchmark_decide_outputs_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    digest = hashlib.sha256()
    for workload, seed in (("field", 1), ("whiskered", 1), ("whiskered", 2)):
        _, ops = run.setup(workload, seed, 1.0, str(tmp_path / f"{workload}{seed}"))
        for op in ops:
            for argv in ([op["cmd"], op["graph"], *op["extra"], "--field", op["field"], "--json"],
                         ["lin-quotients", op["graph"], *op["extra"], "--json"]):
                rc, out = _call(argv)
                digest.update(f"{rc}\n{out}".encode())
    sys.modules.pop("inputs", None)
    assert digest.hexdigest() == BENCH_OPS_SHA256


# `is-cm --whisker 1..k --json` of the cycle C_k: the SHA-256 of the
# verdict on W(C_k), recorded before whisker orders were certified in
# closed form
WHISKERED_CYCLE_SHA256 = {
    3: "864c0c4984618f94b2f216dc63c86c38a1ef4a65c149419373247d0fd1cc7d54",
    4: "5b4b6b43c3f9a7b355ad668d55e9e31702e5ebf0b469cac983daa990a68e2d86",
    5: "ea9a4c6ebec111af65f4a5d2f5c909070e2bc6bda7a65bed912fd70b2c442502",
    6: "eb369b3552cd6accb6c3185d824e02748feeea96e563d61f7d1e971b2efc404c",
    7: "b47022a9795b0011edec3821a65d3666761a602a48d3f36ff2b09f3269c363c9",
    8: "b01c948e97536fccbccddf287425fd59ed69c0010b55d232c90bca45a6985dc3",
    9: "c19685baddf21d8b501f6feab27e73243a1b9d57b75c44c2937a14485ba17dad",
    10: "8e39b8ce54486ad5eef7589fb598fe5f3fa9bf9bca5a14fa313053723b73eb1b",
    11: "f44110f368e5dea5460898b9a82810d0afec8c7d858fd129fb9857af2202a70e",
    12: "d1aa497652e7bc690881b901286cb91b32064992d7e6be924fa1fdb35d73fcf0",
    13: "7e863ef635e58721370fce5668919e5e6a53f4f1d1f8842d980d88919734deaa",
    14: "1e6199eace3311c3b1ed4b06412d2e29b444de90cc6491dace811f27a00a873a",
    15: "28657f91a854823175efce1580618f4801b8aba5ea2f4427b24231f88bad7cec",
    16: "99b5f607715258e8de8a5b59f1998b187ba0db6dbb5443ea1306a5a493d7bbf7",
}


@pytest.mark.parametrize("k", range(3, 17))
def test_whiskered_cycle_verdicts_pinned(tmp_path, k):
    graph = tmp_path / f"c{k}.graph"
    graph.write_text(format_graph(cycle_graph(k)))
    rc, out = _call(["is-cm", str(graph), "--whisker", ",".join(map(str, range(1, k + 1))),
                     "--json"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WHISKERED_CYCLE_SHA256[k]


def _plain_classes(limit):
    """One graph per isomorphism class on at most ``limit`` vertices."""
    return [Graph._from_adj(adj, _default_labels(n))
            for n, classes in _classes(limit) for adj, smask in classes if not smask]


def _relabelled(G, rng, bases):
    """G under a random relabelling that keeps each whisker tip after its
    base: a shuffle with every tip placed before its base swapped back."""
    order = list(range(G.n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    for b, t in bases:
        if pos[t] < pos[b]:
            pos[t], pos[b] = pos[b], pos[t]
    return Graph(G.n, [(pos[u], pos[v]) for u, v in G.edges()]), [(pos[b], pos[t])
                                                                  for b, t in bases]


def _whisker_colon(G, d):
    """(L2's colon masks or None, the canonical walk's colon and failures)
    of the degree-d covers of G."""
    ctx = _OrderSearch(G.adj, d)
    full = (1 << G.n) - 1
    bases = ctx._whisker_bases(full, d)
    gens = ctx.gens(full, d)
    return None if bases is None else [bases & ~c for c in gens], _colon_walk(gens)


def test_full_whiskering_colons_match_the_walk():
    # L2 on W(G) for every plain class through six vertices, numbered by
    # add_whiskers and under random labellings that interleave the tips
    rng = random.Random(29)
    checked = 0
    for G in _plain_classes(6):
        W, wm = add_whiskers(G, range(G.n))
        graphs = [(W, wm.pairs)] + [_relabelled(W, rng, wm.pairs) for _ in range(14)]
        for H, pairs in graphs:
            closed, (colon, failed) = _whisker_colon(H, G.n)
            assert failed == 0 and closed == colon, (H, pairs)
            ctx = _OrderSearch(H.adj, G.n)
            full = (1 << H.n) - 1
            assert ctx._whisker_bases(full, G.n) == sum(1 << b for b, _ in pairs)
            checked += 1
    assert checked >= 3000


def test_full_whiskering_refuses_other_graphs():
    cases = {
        # the triangle 0, 1, 2 with the tips 3 and 4 at 0 and 5 at 1: three
        # tips for d = 3, but two bases
        "a base with two tips": (Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (1, 5)]), 3),
        # C4 with tips at 0 and 1 only
        "a partial whiskering": (add_whiskers(cycle_graph(4), [0, 1])[0], 3),
        # the edge 2-3 with the tips 0 of 2 and 1 of 3
        "a tip below its base": (Graph(4, [(0, 2), (1, 3), (2, 3)]), 2),
        # W(K2) on 0..3 and the isolated vertices 4 and 5
        "an isolated vertex": (Graph(6, [(0, 1), (0, 2), (1, 3)]), 3),
    }
    W = add_whiskers(cycle_graph(4), range(4))[0]
    cases.update({f"d = {d} on W(C4)": (W, d) for d in (3, 5, 8)})
    for why, (G, d) in cases.items():
        assert _whisker_colon(G, d)[0] is None, why
    assert _whisker_colon(W, 4)[0] is not None


def _candidates_checked(monkeypatch):
    """Spy every whisker sequence the order search builds: its closed-form
    colon must be the walk's, with no failing step.  Returns the count."""
    real, seen = quotients._whisker_seq, []

    def spied(*args):
        got = real(*args)
        if got is not None:
            colon, failed = _colon_walk(got[0])
            assert failed == 0 and got[1] == colon
            seen.append(1)
        return got
    monkeypatch.setattr(quotients, "_whisker_seq", spied)
    return seen


def test_whisker_decomposition_colons_match_the_walk(monkeypatch):
    # L1 on every structural candidate of the decides of the 35 field
    # graphs, of whisker(G, S) for every class through five vertices, of
    # the T3.7 sweep through five vertices and of 200-trial campaigns
    seen = _candidates_checked(monkeypatch)
    is_cm(rp2_sd())
    for i in range(34):
        is_sequentially_cm(field_pool_graph(i))
    for n, classes in _classes(5):
        for adj, smask in classes:
            G = Graph._from_adj(adj, _default_labels(n))
            is_sequentially_cm(add_whiskers(G, _bits(smask))[0])
    argvs = [["T3.7", "--max-n", "5"]]
    argvs += [[claim, "--trials", "200", "--max-n", "9"]
              for claim in ("T3.2", "T3.3", "C3.4", "C3.5", "C4.2", "T4.1", "C3.6")]
    for argv in argvs:
        assert _call(["verify-theorem", *argv])[0] == 0
    assert len(seen) >= 400


def test_whiskered_cycle_is_decided_without_a_walk(monkeypatch):
    # L2 certifies W(C12) outright; verify still walks the certificate once
    calls = []
    real = quotients._colon_walk
    monkeypatch.setattr(quotients, "_colon_walk",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    W = add_whiskers(cycle_graph(12), range(12))[0]
    verdict = is_cm(W)
    assert verdict.value and calls == []
    assert check_evidence(W, verdict.to_json(W.labels)) == (True, "verdict verified")
    assert len(calls) == 1


def test_gf2_witness_on_d_plus_two_is_every_fields_witness(monkeypatch):
    # a GF(2) witness with |b| = d + 2 settles its degree over GF(3) and Q
    # with no scan, and the answer is the full scan's: on the field graphs
    # and on every plain class through six vertices
    graphs = [rp2_sd()] + [field_pool_graph(i) for i in range(34)] + _plain_classes(6)
    scanned, real = [], homology.nonlinear_witness
    monkeypatch.setattr(homology, "nonlinear_witness",
                        lambda M, f, spend=None: scanned.append(M.min_degree) or real(M, f, spend))
    reused = 0
    for G in graphs:
        report = has_dual_linear_quotients(G, budget=DEFAULT_SEARCH_BUDGET, stop_at_failure=True)
        near = [d for d, w in report.witnesses.items() if len(w.multidegree) == d + 2]
        for field in (GF3, QQ):
            scanned.clear()
            got = _scan_open_degrees(report, field)
            assert not set(near) & set(scanned), G
            want = is_componentwise_linear(report.dual, field)
            assert (got.per_degree, got.witness) == (want.per_degree, want.witness), G
        reused += len(near)
    assert reused >= 40


def test_whisker_decomposition_walks_no_covers_of_its_own(monkeypatch):
    # the blocks' walks serve the whole decomposition: the A covers that
    # contain the base are read off the rest's covers, so a cover walk is
    # only ever started to order a component, never by _whisker_seq itself
    callers, real = [], quotients._covers_by_size

    def spied(*args):
        callers.append(sys._getframe(2).f_code.co_name)
        return real(*args)
    monkeypatch.setattr(quotients, "_covers_by_size", spied)
    seen = _candidates_checked(monkeypatch)
    is_cm(rp2_sd())
    for i in range(34):
        is_sequentially_cm(field_pool_graph(i))
    assert len(seen) >= 20 and len(callers) >= 100
    assert "_whisker_seq" not in callers
