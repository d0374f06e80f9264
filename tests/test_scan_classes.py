import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scan_classes.py"
_spec = importlib.util.spec_from_file_location("scan_classes", _SCRIPT)
scan_classes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scan_classes)


def test_scan_classes_prints_the_report_hash(capsys):
    # the first 200 whiskered 5-vertex classes in ascending order of their
    # canonical forms, 3 of them with a witness; the hash is the same in
    # both fields, since no dual this small depends on the field
    for field in ("2", "q"):
        assert scan_classes.main([field, "--count", "200", "--vertices", "5"]) == 0
        head, timing, digest = capsys.readouterr().out.splitlines()
        assert head == f"field {field}: 200 classes on 5 vertices, 3 not componentwise linear"
        assert timing.startswith("scan ") and timing.endswith(" s")
        assert digest == "sha256 " + HASH_200_ON_5


HASH_200_ON_5 = "100e500860b8f49009be236bd3725b3e226d90fce3ad70e2b1016375b7beab5a"
