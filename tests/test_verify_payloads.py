import hashlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "verify_payloads.py"
_spec = importlib.util.spec_from_file_location("verify_payloads", _SCRIPT)
verify_payloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verify_payloads)


def test_verify_payloads_print_the_answer_hash(capsys):
    # RP2-SD and four pool graphs in three fields, one whiskered graph, and
    # the tampered copies of their certificate verdicts
    assert verify_payloads.main(["--pool", "4", "--whiskered", "1", "--repeats", "1"]) == 0
    head, timing, digest = capsys.readouterr().out.splitlines()
    assert head == "92 payloads, 26 verified"
    assert timing.startswith("check_evidence ") and timing.endswith(" ms per pass")
    assert digest == "sha256 " + HASH_4_POOL_1_WHISKERED


def test_tampered_certificates_keep_their_answers():
    # every GF(2) certificate verdict of the field pool and the first
    # whiskered verdict, each degree tampered six ways: the answers are
    # pinned one by one (the hash) and by kind, with the degree left out
    work = [w for w in verify_payloads.payloads(34, 1, 1) if w[2] != "genuine"]
    answers = [verify_payloads.answer(G, data) for G, data, _ in work]
    digest = hashlib.sha256("".join(a + "\n" for a in answers).encode()).hexdigest()
    by_kind = Counter((kind, re.sub(r"^degree \d+: ", "", a.split("\t")[1]), a.split("\t")[0])
                      for (_, _, kind), a in zip(work, answers))
    mismatch = "certificate generators do not match the graph's dual component"
    assert by_kind == {
        ("drop", mismatch, "False"): 52,
        ("non-cover", mismatch, "False"): 52,
        ("repeat", "certificate generators are not minimal or not distinct", "InputError"): 52,
        ("colon", "colon steps do not verify", "False"): 52,
        ("swap", "colon steps do not verify", "False"): 13,
        ("swap", "verdict verified", "True"): 34,
        ("vars", "certificate variables do not match the graph's labels", "False"): 52,
    }
    assert digest == HASH_TAMPERED


HASH_4_POOL_1_WHISKERED = "464d0c957fa640fcb6ddd0dafe3caf0ea8aa46185644bdfe24d2245138c88326"
HASH_TAMPERED = "2b9fd6f9bd369c9f2e30916f47b0ff183be560763928dd0e79227ffe35ad8247"
