import json
import os
import subprocess
import sys
import time

import pytest

from edgeideals.cli import main

C5_TEXT = "5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n"
C4_TEXT = "4 4\n1 2\n2 3\n3 4\n4 1\n"
EX43_BASE = "5 5\n1 2\n2 3\n3 4\n4 1\n1 5\n"
STAR_TEXT = "4 3\n1 2\n1 3\n1 4\n"


@pytest.fixture
def c5(tmp_path):
    p = tmp_path / "c5.graph"
    p.write_text(C5_TEXT)
    return str(p)


@pytest.fixture
def c4(tmp_path):
    p = tmp_path / "c4.graph"
    p.write_text(C4_TEXT)
    return str(p)


@pytest.fixture
def star(tmp_path):
    p = tmp_path / "star.graph"
    p.write_text(STAR_TEXT)
    return str(p)


@pytest.fixture
def ex43(tmp_path):
    p = tmp_path / "ex43.graph"
    p.write_text(EX43_BASE)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_is_scm_exit_codes(capsys, c5, c4):
    code, out, _ = run(capsys, "is-scm", c5)
    assert code == 0 and out.startswith("SCM: true (dual linear quotients")
    code, out, _ = run(capsys, "is-scm", c4)
    assert code == 1 and "nonlinear syzygy" in out and "x1*x2*x3*x4" in out


def test_is_cm_path(capsys, tmp_path):
    p = tmp_path / "p3.graph"
    p.write_text("3 2\n1 2\n2 3\n")
    code, out, _ = run(capsys, "is-cm", str(p))
    assert code == 1 and "unmixed: false" in out


def test_dual_json(capsys, c5):
    code, out, _ = run(capsys, "dual", c5, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["gens"][0] == ["x1", "x2", "x4"]
    assert len(data["gens"]) == 5


def test_covers_size(capsys, c5):
    code, out, _ = run(capsys, "covers", c5, "--size", "3", "--json")
    data = json.loads(out)
    assert code == 0 and len(data["covers"]) == 5 and data["unmixed"] is True


def test_minimal_covers_walk_once(capsys, monkeypatch, c5, star):
    # without --size, "unmixed" is read off the covers already listed
    from edgeideals import graphs
    walk = graphs._minimal_cover_masks
    calls = []
    monkeypatch.setattr(graphs, "_minimal_cover_masks",
                        lambda adj, active: calls.append(active) or walk(adj, active))
    for graph, unmixed in ((c5, "true"), (star, "false")):
        calls.clear()
        code, out, _ = run(capsys, "covers", graph)
        assert code == 0 and out.endswith(f"unmixed: {unmixed}\n") and len(calls) == 1


def test_betti_component_text(capsys, ex43):
    code, out, _ = run(capsys, "betti", ex43, "--whisker", "5", "--component", "3")
    assert code == 0
    assert out.splitlines()[0].split() == ["i\\j", "3", "4", "5"]


def test_whisker_then_delete_order(capsys, c4):
    # whisker vertex 1, then delete original vertex 2: transforms compose
    code, out, _ = run(capsys, "whisker", c4, "--whisker", "1", "--delete", "2")
    assert code == 0
    assert out.splitlines()[0] == "4 3"


def test_lin_quotients_exit(capsys, c5, c4):
    assert run(capsys, "lin-quotients", c5)[0] == 0
    code, out, _ = run(capsys, "lin-quotients", c4)
    assert code == 1 and "no linear-quotients order exists" in out


def test_verify_roundtrip_verdicts(capsys, tmp_path, c5, c4):
    for path, expect in ((c5, 0), (c4, 1)):
        code, out, _ = run(capsys, "is-scm", path, "--json")
        assert code == expect
        payload = tmp_path / "payload.json"
        payload.write_text(out)
        code, out, _ = run(capsys, "verify", path, "--in", str(payload))
        assert code == 0 and "verified: true" in out


def test_verify_roundtrip_dlq_report(capsys, tmp_path, c5):
    _, out, _ = run(capsys, "lin-quotients", c5, "--json")
    payload = tmp_path / "report.json"
    payload.write_text(out)
    code, out, _ = run(capsys, "verify", c5, "--in", str(payload))
    assert code == 0 and "verified: true" in out


def test_verify_roundtrip_single_certificate(capsys, tmp_path, c5):
    _, out, _ = run(capsys, "lin-quotients", c5, "--json")
    cert = json.loads(out)["per_degree"]["3"]
    payload = tmp_path / "cert.json"
    payload.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", c5, "--in", str(payload))
    assert code == 0 and "verified: true" in out


def test_verify_rejects_wrong_graph(capsys, tmp_path, c5, c4):
    _, out, _ = run(capsys, "is-scm", c5, "--json")
    payload = tmp_path / "payload.json"
    payload.write_text(out)
    code, out, _ = run(capsys, "verify", c4, "--in", str(payload))
    assert code == 1


def test_verify_detects_tampered_value(capsys, tmp_path, c4):
    _, out, _ = run(capsys, "is-scm", c4, "--json")
    data = json.loads(out)
    data["value"] = True
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", c4, "--in", str(payload))
    assert code == 1 and "does not match" in out


def test_verify_detects_flipped_unmixed_flag(capsys, tmp_path, c5, ex43):
    edgeless = tmp_path / "edgeless.graph"
    edgeless.write_text("3 0\n")
    for path, unmixed in ((c5, True), (ex43, False), (str(edgeless), True)):
        _, out, _ = run(capsys, "is-cm", path, "--json")
        data = json.loads(out)
        assert data["unmixed"] is unmixed
        payload = tmp_path / "payload.json"
        payload.write_text(out)
        code, out, _ = run(capsys, "verify", path, "--in", str(payload))
        assert code == 0 and "verified: true" in out
        data["unmixed"] = not unmixed
        payload.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", path, "--in", str(payload))
        assert code == 1 and "unmixed flag does not match" in out


C4_WITNESS = {"kind": "betti-witness", "degree": 2, "index": 1,
              "multidegree": ["x1", "x2", "x3", "x4"]}


def test_c4_report_holds_its_one_degree(capsys, c4):
    # every minimal cover of C4 has two vertices, so D = 2 is its only degree
    code, out, _ = run(capsys, "lin-quotients", c4, "--json")
    assert code == 1 and json.loads(out)["per_degree"] == {"2": C4_WITNESS}


def _star_certificates(capsys, star):
    """The K_{1,3} report: its minimal covers have one and three vertices,
    so it certifies degrees 1, 2 and 3."""
    _, out, _ = run(capsys, "lin-quotients", star, "--json")
    report = json.loads(out)
    assert sorted(report["per_degree"]) == ["1", "2", "3"] and report["verdict"] is True
    return report, report["per_degree"]["2"], report["per_degree"]["3"]


# the degree-3 certificate must not stand in for the degree-2 component
MISFILED = "verified: false (degree 2: certificate generators do not match the graph's dual component)\n"


def test_verify_rejects_forged_verdict_with_misfiled_certificate(capsys, tmp_path, star):
    report, _, cert3 = _star_certificates(capsys, star)
    _, out, _ = run(capsys, "is-scm", star, "--json")
    verdict = json.loads(out)
    assert verdict["value"] is True
    verdict["evidence"] = {"kind": "quotient-certificates",
                           "per_degree": {"1": report["per_degree"]["1"], "2": cert3, "3": cert3}}
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps(verdict))
    assert run(capsys, "verify", star, "--in", str(payload))[:2] == (1, MISFILED)


def test_verify_rejects_forged_report_with_misfiled_certificate(capsys, tmp_path, star):
    report, _, cert3 = _star_certificates(capsys, star)
    report["per_degree"]["2"] = cert3
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps(report))
    assert run(capsys, "verify", star, "--in", str(payload))[:2] == (1, MISFILED)


def test_verify_rejects_degrees_outside_or_twice(capsys, tmp_path, star):
    report, _, cert3 = _star_certificates(capsys, star)
    payload = tmp_path / "payload.json"
    for per, unknown in (({**report["per_degree"], "4": cert3}, []),
                         (report["per_degree"], [3]),
                         ({"01": None, **report["per_degree"]}, [])):
        payload.write_text(json.dumps({**report, "per_degree": per, "unknown": unknown}))
        code, out, _ = run(capsys, "verify", star, "--in", str(payload))
        assert code == 1 and "exactly once" in out


def test_verify_rejects_genuine_evidence_above_d(capsys, tmp_path, c4, c5):
    # payloads as they were written when every degree up to n was reported:
    # the certificates above D are genuine, and still refused
    from edgeideals import (alexander_dual_of_edge_ideal, cycle_graph, find_order,
                            squarefree_degree_component)
    payload = tmp_path / "payload.json"
    for path, G, source in ((c4, cycle_graph(4), "lin-quotients"), (c5, cycle_graph(5), "is-scm")):
        _, out, _ = run(capsys, source, path, "--json")
        data = json.loads(out)
        per = data.get("evidence", data)["per_degree"]  # a verdict's, or a report's
        dual = alexander_dual_of_edge_ideal(G)
        for d in range(dual.max_degree + 1, G.n + 1):
            q = find_order(squarefree_degree_component(dual, d))
            assert q is not None
            per[str(d)] = q.to_json(G.labels)
        payload.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", path, "--in", str(payload))
        assert code == 1 and "exactly once" in out, out


@pytest.mark.parametrize("key, witness, why", [
    pytest.param("2", {**C4_WITNESS, "multidegree": ["x1", "x2", "x3"]},
                 "witness multidegree lies on the linear strand", id="linear-strand"),
    pytest.param("2", {**C4_WITNESS, "index": 0},
                 "witness Betti number vanishes on re-computation", id="vanishing"),
    pytest.param("3", C4_WITNESS, "witness of degree 2 filed under degree 3",
                 id="wrong-degree"),
])
def test_verify_rejects_forged_report_witness(capsys, tmp_path, star, key, witness, why):
    report, _, _ = _star_certificates(capsys, star)
    report["per_degree"][key] = witness
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps(report))
    assert run(capsys, "verify", star, "--in", str(payload))[:2] == (
        1, f"verified: false (degree {key}: {why})\n")


def _report_witness(d, **edit):
    """A C4 lin-quotients report whose degree-2 witness has ``edit`` applied."""
    return {**d, "per_degree": {**d["per_degree"], "2": {**d["per_degree"]["2"], **edit}}}


@pytest.mark.parametrize("graph, source, edit", [
    pytest.param("c4", "lin-quotients",
                 lambda d: {**d, "per_degree": {"x": None, **d["per_degree"]}},
                 id="degree-key-x"),
    pytest.param("c4", "lin-quotients", lambda d: {**d, "unknown": ["x"]}, id="unknown-x"),
    pytest.param("c4", "is-scm",
                 lambda d: {**d, "evidence": {k: v for k, v in d["evidence"].items()
                                              if k != "degree"}},
                 id="witness-without-degree"),
    pytest.param("c4", "is-scm", lambda d: {**d, "field": 2}, id="int-field"),
    pytest.param("c4", "is-scm", lambda d: {**d, "evidence": []}, id="list-evidence"),
    pytest.param("star", "lin-quotients", lambda d: {**d["per_degree"]["3"], "ordered_gens": 5},
                 id="certificate-int-gens"),
    pytest.param("star", "lin-quotients", lambda d: {**d["per_degree"]["3"], "ambient": "x"},
                 id="certificate-ambient-x"),
    pytest.param("c4", "lin-quotients", lambda d: _report_witness(d, index="x"),
                 id="report-witness-index-x"),
    pytest.param("c4", "lin-quotients", lambda d: _report_witness(d, degree=None),
                 id="report-witness-without-degree"),
    pytest.param("c4", "lin-quotients", lambda d: _report_witness(d, multidegree=["x1", "y9"]),
                 id="report-witness-unknown-vertex"),
    pytest.param("c4", "lin-quotients", lambda d: _report_witness(d, multidegree=4),
                 id="report-witness-int-multidegree"),
])
def test_verify_malformed_payload_exits_2(capsys, tmp_path, request, graph, source, edit):
    graph = request.getfixturevalue(graph)
    _, out, _ = run(capsys, source, graph, "--json")
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps(edit(json.loads(out))))
    code, out, err = run(capsys, "verify", graph, "--in", str(payload))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_rp2_sd_report_verifies(capsys, tmp_path):
    # every degree of RP2-SD's dual is decided within the default budget:
    # one refuted by its GF(2) witness, the others certified
    from edgeideals.graphs import format_graph
    from edgeideals.harness import rp2_sd
    graph = tmp_path / "rp2.graph"
    graph.write_text(format_graph(rp2_sd()))
    code, out, _ = run(capsys, "lin-quotients", str(graph), "--json")
    report = json.loads(out)
    assert code == 1 and report["verdict"] is False and report["unknown"] == []
    assert [d for d, e in report["per_degree"].items() if "ordered_gens" not in e] == ["28"]
    assert report["per_degree"]["28"]["kind"] == "betti-witness"
    payload = tmp_path / "report.json"
    payload.write_text(out)
    code, out, _ = run(capsys, "verify", str(graph), "--in", str(payload))
    assert (code, out) == (0, "verified: true (report verified)\n")


def test_verify_bounds_the_witness_complex(capsys, tmp_path):
    # a forged witness naming every vertex of a 10-edge perfect matching:
    # 2^10 degree-10 covers divide x^b, each leaving a facet of 10 vertices,
    # so the complex may have 2^20 faces; the re-check refuses it unbuilt
    from edgeideals import check_evidence, is_sequentially_cm
    from edgeideals.errors import SearchBudgetExceeded
    from edgeideals.graphs import Graph, format_graph
    from edgeideals.harness import rp2_sd
    G = Graph(20, [(2 * j, 2 * j + 1) for j in range(10)])
    forged = {"property": "SCM", "value": False, "field": "2",
              "evidence": {"kind": "betti-witness", "degree": 10, "index": 1,
                           "multidegree": list(G.labels)}}
    with pytest.raises(SearchBudgetExceeded):
        check_evidence(G, forged)
    graph = tmp_path / "matching.graph"
    graph.write_text(format_graph(G))
    payload = tmp_path / "forged.json"
    payload.write_text(json.dumps(forged))
    code, out, err = run(capsys, "verify", str(graph), "--in", str(payload))
    assert code == 2 and out == "" and err.startswith("error: ")
    # a genuine witness stays well inside the bound (RP2-SD: 60 facets, |b| - d = 3)
    R = rp2_sd()
    verdict = is_sequentially_cm(R)
    assert verdict.evidence.kind == "betti-witness"
    assert check_evidence(R, verdict.to_json(R.labels)) == (True, "verdict verified")


@pytest.mark.parametrize("n, edges, degree, named, code, why", [
    # the 12-edge perfect matching is unmixed: degree 18 is above D = 12
    pytest.param(24, [(2 * j, 2 * j + 1) for j in range(12)], 18, 24, 1,
                 "witness degree 18 lies outside the dual's degrees 12..12", id="matching-18"),
    # K_{1,20} at degree 11: C(20, 10) generators divide x^b, each leaving 10 vertices
    pytest.param(21, [(0, j) for j in range(1, 21)], 11, 21, 2, None, id="star-11"),
    # the same on the center and 11 leaves: 11 generators, counted without
    # building the C(20, 10)-generator component
    pytest.param(21, [(0, j) for j in range(1, 21)], 11, 12, 1,
                 "witness Betti number vanishes on re-computation", id="star-11-twelve"),
])
def test_verify_refuses_forged_witnesses_fast(capsys, tmp_path, n, edges, degree, named,
                                              code, why):
    from edgeideals import check_evidence
    from edgeideals.errors import SearchBudgetExceeded
    from edgeideals.graphs import Graph, format_graph
    G = Graph(n, edges)
    forged = {"property": "SCM", "value": False, "field": "2",
              "evidence": {"kind": "betti-witness", "degree": degree, "index": 2,
                           "multidegree": list(G.labels[:named])}}
    t0 = time.perf_counter()
    if code == 2:
        with pytest.raises(SearchBudgetExceeded):
            check_evidence(G, forged)
    else:
        assert check_evidence(G, forged) == (False, why)
    assert time.perf_counter() - t0 < 0.5
    graph = tmp_path / "forged.graph"
    graph.write_text(format_graph(G))
    payload = tmp_path / "forged.json"
    payload.write_text(json.dumps(forged))
    got, out, err = run(capsys, "verify", str(graph), "--in", str(payload))
    assert got == code
    assert out == ("" if code == 2 else f"verified: false ({why})\n")


def _star_payloads():
    """K_{1,39} and three payloads whose certificate names a component
    larger than itself: a bare one-generator certificate of degree 20
    (whose component has C(39, 19) generators), a report filing it under
    degree 20, and a verdict with a one-generator degree-2 certificate."""
    from edgeideals.graphs import Graph
    G = Graph(40, [(0, j) for j in range(1, 40)])
    labels = list(G.labels)

    def cert(names):
        return {"ambient": 40, "vars": labels, "ordered_gens": [names], "colon_vars": [[]]}
    bare = cert(labels[:20])
    report = {"kind": "dlq-report", "verdict": None,
              "per_degree": {"1": cert(["x1"]), "20": bare},
              "unknown": [d for d in range(2, 40) if d != 20], "skipped": []}
    verdict = {"property": "SCM", "value": True, "field": "2",
               "field_independent": True,
               "evidence": {"kind": "quotient-certificates",
                            "per_degree": {str(d): cert(["x1"]) if d == 1 else cert(labels[:2])
                                           for d in range(1, 40)}}}
    return G, {"bare": (bare, ""), "report": (report, "degree 20: "),
               "verdict": (verdict, "degree 2: ")}


def _verify_in_child(tmp_path, G, data):
    """``verify`` of ``data`` against G in a child interpreter, so that a
    regression into an unbounded build is cut off, not waited out."""
    from edgeideals.graphs import format_graph
    graph = tmp_path / "star.graph"
    graph.write_text(format_graph(G))
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps(data))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    try:
        return subprocess.run([sys.executable, "-m", "edgeideals", "verify", str(graph),
                               "--in", str(payload)],
                              capture_output=True, text=True, env=env, timeout=10)
    except subprocess.TimeoutExpired:
        pytest.fail("verify still running after 10 s")


@pytest.mark.parametrize("which", ["bare", "report", "verdict"])
def test_verify_refuses_an_oversized_component_unbuilt(tmp_path, which):
    # the component is compared only up to the certificate's size, so the
    # refusal comes before C(39, 19) masks are built
    G, payloads = _star_payloads()
    data, prefix = payloads[which]
    child = _verify_in_child(tmp_path, G, data)
    why = prefix + "certificate generators do not match the graph's dual component"
    assert (child.returncode, child.stdout) == (1, f"verified: false ({why})\n")


def test_verify_refuses_a_null_entry_over_the_budget_unbuilt(tmp_path):
    # a null degree-20 entry is counted against the search budget before
    # its C(39, 19)-generator component is built
    G, payloads = _star_payloads()
    report = {**payloads["report"][0], "verdict": False}
    report["per_degree"] = {**report["per_degree"], "20": None}
    child = _verify_in_child(tmp_path, G, report)
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == "error: degree 20 has over 20000 generators, " \
                           "more than a search may expand\n"


def test_cli_holds_no_evidence_logic():
    # evidence is re-checked by decide.check_evidence; the CLI only does I/O
    import edgeideals.cli
    for name in ("verify_order", "find_order", "squarefree_degree_component",
                 "betti_at", "is_componentwise_linear"):
        assert not hasattr(edgeideals.cli, name), name


def test_lin_quotients_search_is_budgeted(capsys, tmp_path, c4, monkeypatch):
    import edgeideals.cli
    monkeypatch.setattr(edgeideals.cli, "DEFAULT_SEARCH_BUDGET", 0)
    code, out, _ = run(capsys, "lin-quotients", c4)
    assert code == 1
    assert out.splitlines()[0] == "degree 2: unknown (search budget exceeded)"
    assert out.splitlines()[-1] == "dual linear quotients: none"
    code, out, _ = run(capsys, "lin-quotients", c4, "--json")
    data = json.loads(out)
    assert code == 1 and data["unknown"] == [2] and "2" not in data["per_degree"]
    assert data["verdict"] is None
    payload = tmp_path / "report.json"
    payload.write_text(out)
    code, out, _ = run(capsys, "verify", c4, "--in", str(payload))
    assert code == 0 and "verified: true" in out


def test_input_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("2 1\n1 1\n")
    code, _, err = run(capsys, "is-scm", str(bad))
    assert code == 2 and "loop" in err
    code, _, err = run(capsys, "is-scm", str(tmp_path / "missing.graph"))
    assert code == 2
    good = tmp_path / "good.graph"
    good.write_text("2 1\n1 2\n")
    code, _, err = run(capsys, "is-scm", str(good), "--whisker", "9")
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, "is-scm", str(good), "--field", "6")
    assert code == 2
    # a certificate label list naming an unknown variable, holding a
    # non-string or a nested list, or given as a bare string
    for names in (["x9"], [1], [["x1"]], "x1"):
        for key in ("ordered_gens", "colon_vars"):
            cert = {"ambient": 2, "vars": ["x1", "x2"], "ordered_gens": [["x1", "x2"]],
                    "colon_vars": [[]], key: [names]}
            payload = tmp_path / "cert.json"
            payload.write_text(json.dumps(cert))
            code, out, err = run(capsys, "verify", str(good), "--in", str(payload))
            assert code == 2 and out == "" and err.startswith("error: "), (names, key)


def test_byte_identical_runs(capsys, c5):
    _, out1, _ = run(capsys, "is-scm", c5, "--json")
    _, out2, _ = run(capsys, "is-scm", c5, "--json")
    assert out1 == out2


def test_field_env_default(capsys, c4, monkeypatch):
    monkeypatch.setenv("EDGEIDEALS_FIELD", "3")
    code, out, _ = run(capsys, "is-scm", c4, "--json")
    assert json.loads(out)["field"] == "3"


def test_field_env_is_read_on_every_call(capsys, c4, monkeypatch):
    # the parser is built once per process; the default field is not
    monkeypatch.setenv("EDGEIDEALS_FIELD", "3")
    _, out, _ = run(capsys, "is-scm", c4, "--json")
    assert json.loads(out)["field"] == "3"
    monkeypatch.setenv("EDGEIDEALS_FIELD", "q")
    _, out, _ = run(capsys, "is-scm", c4, "--json")
    assert json.loads(out)["field"] == "q"
    monkeypatch.delenv("EDGEIDEALS_FIELD")
    _, out, _ = run(capsys, "is-scm", c4, "--json")
    assert json.loads(out)["field"] == "2"


def test_huge_field_characteristic_exits_2_fast(capsys, c4, tmp_path):
    # 2**61 - 1 is prime: trial division would try about 7.6e8 odd divisors
    huge = str(2 ** 61 - 1)
    _, out, _ = run(capsys, "is-scm", c4, "--json")
    payload = json.loads(out)
    payload["field"] = huge
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    t0 = time.perf_counter()
    code, _, err = run(capsys, "verify", c4, "--in", str(path))
    assert code == 2 and "2**31" in err
    code, _, err = run(capsys, "is-scm", c4, "--field", huge)
    assert code == 2 and "2**31" in err
    assert time.perf_counter() - t0 < 0.5


def test_verify_takes_no_field_option(capsys, c4, tmp_path):
    # the payload's own "field" decides the re-check, so a --field that
    # could disagree with it is refused by the parser
    _, out, _ = run(capsys, "is-scm", c4, "--json")
    path = tmp_path / "gf2.json"
    path.write_text(out)
    with pytest.raises(SystemExit) as exc:
        main(["verify", c4, "--in", str(path), "--field", "q"])
    assert exc.value.code == 2
    assert run(capsys, "verify", c4, "--in", str(path))[0] == 0


def test_fixture_subcommand(capsys):
    code, out, _ = run(capsys, "fixture", "EX3.9")
    assert code == 0 and "PASS" in out


def test_verify_theorem_subcommand(capsys):
    code, out, _ = run(capsys, "verify-theorem", "C4.2", "--trials", "4",
                       "--seed", "5", "--json")
    data = json.loads(out)
    assert code == 0 and data["failed"] == 0 and data["claim"] == "C4.2"


# verify-theorem T4.1 --trials 100 --seed 2026 --field 2,3,q --json, recorded
# before the remainder was settled by its edges and by dual linear quotients
# ahead of the homology scan, with order_search_stats (which that raises)
# taken out and the rest serialized with sorted keys
T41_SHA256 = "729e61551500af765a1f191298c1f88dbc4cd7128024be8c836f4c0464c96185"


def test_t41_report_bytes_pinned(capsys):
    import hashlib
    code, out, _ = run(capsys, "verify-theorem", "T4.1", "--trials", "100", "--seed", "2026",
                       "--field", "2,3,q", "--json")
    data = json.loads(out)
    assert code == 0 and data["passed"] == 100
    del data["order_search_stats"]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == T41_SHA256


# verify-theorem <claim> --trials 20 --seed 2026 --json, order_search_stats
# included: the bytes pin each sampler's random stream and each conclusion
CAMPAIGN_SHA256 = {
    "T3.2": "1ebd964c85b2cb1490942c8f25414402abf68c783e7138642fbc1b75f0c2cd8e",
    "T3.3": "440384ae327fe78a9688a153720b7445fdfc28d4ba7488e3f2be6edf32eaf277",
    "C3.4": "902b0fad3bf105fbc4a074a99f03101633ce40d5859cec9a0b91b5024eef1fa0",
    "C3.5": "44cd4555fb0048c45f090992a14722a150b92f963a73c52e2d7a4de3e2d5f01f",
    "C3.6": "09c273045034f4d524e6002556e24664c053f5ee42c05f35ae71016cb0a838e9",
    "C4.2": "fc0484432492fea3203fa3c9d4ac721d64edc45f14a3433de0fa0ded2f17560a",
}


@pytest.mark.parametrize("claim", sorted(CAMPAIGN_SHA256))
def test_campaign_report_bytes_pinned(capsys, claim):
    import hashlib
    code, out, _ = run(capsys, "verify-theorem", claim, "--trials", "20", "--seed", "2026",
                       "--json")
    assert code == 0 and json.loads(out)["failed"] == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CAMPAIGN_SHA256[claim]


# fixture <id> in text and with --json
FIXTURE_SHA256 = {
    "EX3.8": ("a246378e63566e8942cd1c6783dd56a724a509b44d2157d5d0ca5e0e93d23b9a",
              "c20ede57fb577c0f974654dedb0a322d51c95c6b2aeffd1991ecad70ffbdc9a8"),
    "EX3.9": ("316acf17131b58a041b85bfce2a50d0ab1f5d9bda234df697d8d5cc62f650ad5",
              "0dc9e648570f09d6efa4980846d3a12c1947c7981838864b03d687785b86a96c"),
    "EX4.3": ("0f0c489a252190785befa40130055c15740ac7281134dd3b56e86c05bc31b853",
              "93bbcd47743e8026840c76ad36d66ae1ba9e0aaa2565708cc9540f5548582c7b"),
    "C5-ORDER": ("986e49f0e8aea381a62c2943392a18a1e28aca856d24e394e487d0f23a577bea",
                 "93b692173d8845fece8bc6a13504e48b9356151a6d80081130b4f444feea4917"),
    "VILLARREAL-EDGE": ("3847162f84c857a093045f22f585fd6607acd8478fe4ac9eadd319a71f6b2ee6",
                        "b637bc7e1e35c253fa6636e06bbcf5039e71de30ff9e3cc776887a843a7a071c"),
    "RP2-SD": ("a2036512f38acf225b589f8ccf2b0230cff2158bd07bbe2f050c8aae7aa7aba3",
               "ab2cfc4989c83cefbf8944647378c7ee4fbbb4ddb67cef635fc930a6ab2e697a"),
}


@pytest.mark.parametrize("fixture_id", FIXTURE_SHA256)
def test_fixture_output_bytes_pinned(capsys, fixture_id):
    import hashlib
    for extra, digest in zip(((), ("--json",)), FIXTURE_SHA256[fixture_id]):
        code, out, _ = run(capsys, "fixture", fixture_id, *extra)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


# verify-theorem T3.7 --max-n N --json, recorded before the cover walk
# settled whisker tips and before the sweep ran its dual checks on masks
T37_SHA256 = {
    "4": "0d08970ab23a3ea65d7d8562a616bf31d6cfb974967307a692c5d0842b7ba0f9",
    "5": "e5268b68c9b4f475dd5e00dd3dc0ee9f41107230473f31f414ba4e799275a28d",
}


@pytest.mark.parametrize("max_n", sorted(T37_SHA256))
def test_t37_report_bytes_pinned(capsys, max_n):
    import hashlib
    code, out, _ = run(capsys, "verify-theorem", "T3.7", "--max-n", max_n, "--json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == T37_SHA256[max_n]


def test_verify_theorem_refuses_max_n_below_one(capsys):
    for argv in (("T3.2", "--max-n", "0", "--trials", "2"), ("T3.7", "--max-n", "0")):
        code, out, err = run(capsys, "verify-theorem", *argv)
        assert code == 2 and out == ""
        assert err == "error: max_n must be >= 1\n"


def test_verify_theorem_refuses_max_n_below_the_sampler_minimum(capsys):
    for claim, minimum in (("T3.3", 5), ("C4.2", 4)):
        code, out, err = run(capsys, "verify-theorem", claim, "--max-n", str(minimum - 1),
                             "--trials", "2")
        assert code == 2 and out == ""
        assert err == f"error: max_n must be >= {minimum} for {claim}\n"
        assert run(capsys, "verify-theorem", claim, "--max-n", str(minimum),
                   "--trials", "2")[0] == 0


def test_t37_reports_the_labelled_pairs_it_swept(capsys):
    code, out, _ = run(capsys, "verify-theorem", "T3.7", "--max-n", "3", "--json")
    data = json.loads(out)
    assert code == 0 and data["trials"] == data["passed"] + data["failed"] == 2 + 8 + 64
    code, out, _ = run(capsys, "verify-theorem", "T3.7", "--max-n", "3", "--trials", "5")
    assert code == 0 and "  trials=74 max_n=3 " in out


def test_stdin_graph(capsys, monkeypatch, tmp_path):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(C5_TEXT))
    code, out, _ = run(capsys, "is-scm", "-")
    assert code == 0


def test_betti_of_edge_ideal(capsys, c4):
    code, out, _ = run(capsys, "betti", c4, "--of", "edge", "--json")
    data = json.loads(out)
    assert code == 0 and data["of"] == "edge"
    assert [0, 2, 4] in data["total"]


def test_timings_flag(capsys, c5):
    code, out, err = run(capsys, "is-scm", c5, "--timings")
    assert code == 0 and "elapsed:" in err
    code, out, _ = run(capsys, "is-scm", c5, "--json", "--timings")
    assert "timings" in json.loads(out)


def test_betti_json_has_multigraded_entries(capsys, c4):
    code, out, _ = run(capsys, "betti", c4, "--component", "2", "--json")
    data = json.loads(out)
    assert code == 0
    assert [1, ["x1", "x2", "x3", "x4"], 1] in data["multigraded"]


# G(7, 0.4) drawn from random.Random(12), with every vertex whiskered; the
# hashes pin the outputs recorded before the one-pass colon kernel, with the
# degrees above D = 7 (reported until evidence stopped at D) taken out
PINNED_EDGES = [(0, 4), (0, 5), (0, 6), (1, 2), (2, 4), (2, 6), (3, 5), (4, 5), (5, 6)]
PINNED_SHA256 = {
    "is-cm": "4f247749490f1200dcbdb00460ac6039c7f76d4c60616d78e53f59a79adbf212",
    "lin-quotients": "0c79cfbcfcec1b13bd4bf54e8bd7593da1f09d4f2bda464a71c1b12cc8d0303e",
}


def test_fully_whiskered_evidence_bytes_pinned(capsys, tmp_path):
    import hashlib
    import random
    rng = random.Random(12)
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.4]
    assert edges == PINNED_EDGES
    graph = tmp_path / "g7.graph"
    graph.write_text("7 9\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in edges))
    whiskers = "1,2,3,4,5,6,7"
    for cmd, digest in PINNED_SHA256.items():
        code, out, _ = run(capsys, cmd, str(graph), "--whisker", whiskers, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        payload = tmp_path / f"{cmd}.json"
        payload.write_text(out)
        code, out, _ = run(capsys, "verify", str(graph), "--whisker", whiskers,
                           "--in", str(payload))
        assert code == 0 and out.startswith("verified: true")


# a 9-vertex graph whose degree-6 dual component has no linear-quotients
# order; proving that takes the order search about 10 400 nodes
HOSTILE_TEXT = ("9 14\n1 7\n2 5\n2 7\n3 4\n3 5\n3 6\n3 9\n4 6\n4 8\n4 9\n"
                "5 7\n5 8\n6 8\n8 9\n")


def test_verify_dlq_report_search_is_budgeted(capsys, tmp_path, monkeypatch):
    graph = tmp_path / "hostile.graph"
    graph.write_text(HOSTILE_TEXT)
    code, out, _ = run(capsys, "lin-quotients", str(graph), "--json")
    report = json.loads(out)
    assert code == 1 and report["per_degree"]["6"]["kind"] == "betti-witness"
    # the same report with every witness replaced by a plain null, as
    # reports were written before null degrees carried their witness
    plain = {**report, "per_degree": {d: None if e and e.get("kind") == "betti-witness" else e
                                      for d, e in report["per_degree"].items()}}
    assert plain["per_degree"]["6"] is None
    payload = tmp_path / "report.json"
    payload.write_text(json.dumps(plain))
    code, out, _ = run(capsys, "verify", str(graph), "--in", str(payload))
    assert code == 0 and "verified: true" in out  # within the default budget
    import edgeideals.decide
    monkeypatch.setattr(edgeideals.decide, "DEFAULT_SEARCH_BUDGET", 100)
    code, out, err = run(capsys, "verify", str(graph), "--in", str(payload))
    assert code == 2 and out == "" and "exceeded 100 nodes" in err
    # a witness is re-checked with betti_at and needs no search
    payload.write_text(json.dumps(report))
    code, out, _ = run(capsys, "verify", str(graph), "--in", str(payload))
    assert code == 0 and "verified: true" in out


# plain G(7, 0.4) drawn from random.Random(0); the order search orders two
# degrees of its dual along the whisker decomposition at a pendant vertex,
# and the hash pins the output recorded before that decomposition was
# written once for the search and whisker_order, with the degrees above
# D = 4 taken out
STRUCTURAL_EDGES = [(0, 4), (1, 3), (2, 4), (3, 4), (5, 6)]
STRUCTURAL_SHA256 = "4d57a4d7ddde23c3e9880575b16ef82d4cc1f5c63d09e822efbe87124f729e84"


def test_structural_order_bytes_pinned(capsys, tmp_path):
    import hashlib
    import random
    from edgeideals.quotients import reset_search_stats, search_stats
    rng = random.Random(0)
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.4]
    assert edges == STRUCTURAL_EDGES
    graph = tmp_path / "g7.graph"
    graph.write_text("7 5\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in edges))
    reset_search_stats()
    code, out, _ = run(capsys, "lin-quotients", str(graph), "--json")
    assert code == 0 and search_stats["structural"] == 2
    assert hashlib.sha256(out.encode()).hexdigest() == STRUCTURAL_SHA256
    payload = tmp_path / "report.json"
    payload.write_text(out)
    code, out, _ = run(capsys, "verify", str(graph), "--in", str(payload))
    assert code == 0 and out.startswith("verified: true")


# SHA-256 of the concatenated `is-scm --json` outputs for the 34 graphs of
# the benchmark's G(14, 0.3) field pool, and of `is-cm --json` for RP2-SD,
# per field; recorded before the homology scan skipped the degrees with a
# linear-quotients order and reused the search's GF(2) witness
FIELD_POOL_SHA256 = {
    "2": "fc393e440f8450e6badacabab637ab12b748e41f560b83920234aa48dd23175a",
    "3": "56eb46b589c89c930e3c9023606b6743bbc1147f1dcf372324f6f66bcd4a790e",
    "q": "77c04570c89016dc10ab8225143969da9c47ca18f45474bd304247f18a2c5ef1",
}
RP2_SD_CM_SHA256 = {
    "2": "7d1a4be02f3cb0115a5903701e7ed529b6d881271bbc00d922c2eb982473dba3",
    "3": "dc280d7a1cbc74289273f935c0f2cfa97481ede4d2d3428667aecc4901eef526",
    "q": "1806148c49279fb155efc950fb4577ee947227e40270004903ec83f637eb9a0d",
}


def test_field_workload_bytes_pinned(capsys, tmp_path):
    import hashlib
    from edgeideals.graphs import format_graph
    from edgeideals.harness import rp2_sd
    from oracles import field_pool_graph
    paths = [tmp_path / f"pool{i}.graph" for i in range(34)]
    for i, path in enumerate(paths):
        path.write_text(format_graph(field_pool_graph(i)))
    rp2 = tmp_path / "rp2.graph"
    rp2.write_text(format_graph(rp2_sd()))
    for field in ("2", "3", "q"):
        pool = hashlib.sha256()
        for path in paths:
            pool.update(run(capsys, "is-scm", str(path), "--field", field, "--json")[1].encode())
        _, out, _ = run(capsys, "is-cm", str(rp2), "--field", field, "--json")
        assert pool.hexdigest() == FIELD_POOL_SHA256[field]
        assert hashlib.sha256(out.encode()).hexdigest() == RP2_SD_CM_SHA256[field]
