import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "whiskered_cycles.py"
_spec = importlib.util.spec_from_file_location("whiskered_cycles", _SCRIPT)
whiskered_cycles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(whiskered_cycles)

KS = [str(k) for k in range(3, 11)]
# the minimal covers of W(C_k): the independent sets of C_k, a Lucas number
COVERS = (4, 7, 11, 18, 29, 47, 76, 123)


def test_whiskered_cycles_print_the_verdict_hash(capsys):
    assert whiskered_cycles.main(KS) == 0
    *lines, digest = capsys.readouterr().out.splitlines()
    assert len(lines) == len(KS)
    for k, covers, line in zip(KS, COVERS, lines):
        assert line.startswith(f"W(C{k}): {covers} covers, is_cm ")
        assert line.endswith(" s") and ", check_evidence " in line
    assert digest == "sha256 " + HASH_3_TO_10


# recorded before whisker orders were certified in closed form
HASH_3_TO_10 = "7eb84249ea0082a3a37192943ab2f00e3a9f544075fdc34c56e310b510817624"
