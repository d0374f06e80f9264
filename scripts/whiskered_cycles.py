"""Time ``is_cm`` and ``check_evidence`` on fully whiskered cycles and hash
the verdicts.

For each k, the cycle C_k gets a whisker at every vertex, and W(C_k) is
decided with ``is_cm`` and then re-checked with ``check_evidence``, both in
this process.  Prints, per k, the number of minimal covers (the generators
of the one dual degree) and the two times, then one SHA-256 over the
verdicts' JSON, so two versions of the package can be compared on the same
work:

    python scripts/whiskered_cycles.py 12 16 20

The package is imported from the ``src/`` beside this script.  Only the
standard library is used.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edgeideals import add_whiskers, check_evidence, cycle_graph, is_cm  # noqa: E402


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ks", nargs="+", type=int, metavar="K", help="cycle lengths, 3 or more")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    for k in args.ks:
        W, _ = add_whiskers(cycle_graph(k), range(k))
        start = time.perf_counter()
        verdict = is_cm(W)
        decided = time.perf_counter()
        data = verdict.to_json(W.labels)
        ok, why = check_evidence(W, data)
        checked = time.perf_counter()
        if not (verdict.value and ok):
            raise SystemExit(f"W(C{k}): is_cm {verdict.value}, check_evidence {ok} ({why})")
        digest.update(json.dumps(data, sort_keys=True).encode() + b"\n")
        print(f"W(C{k}): {len(verdict.dual.masks)} covers, is_cm {decided - start:.4f} s, "
              f"check_evidence {checked - decided:.4f} s")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
