"""Time campaign rounds in process and hash their reports.

A round is one single-trial ``verify-theorem`` campaign of each of the
seven sampled claims, with the ``--max-n`` and ``--field`` arguments of
the rounds of perfbench's ``campaigns`` workload, at one seed.  Each
campaign runs through ``cli.main`` in this process.  Prints the time the
rounds took and one SHA-256 over their ``--json`` reports with
``order_search_stats`` dropped, so two versions of the package can be
compared on the same work:

    python scripts/campaign_rounds.py 1 2 3 4 5

The package is imported from the ``src/`` beside this script.  Only the
standard library is used.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edgeideals import cli  # noqa: E402

# (claim, extra arguments), in the order of the benchmark's rounds
ROUND = (
    ("T3.2", ("--max-n", "7")),
    ("T3.3", ("--max-n", "7")),
    ("C3.4", ("--max-n", "7")),
    ("C3.5", ("--max-n", "7")),
    ("C4.2", ("--max-n", "7")),
    ("T4.1", ("--max-n", "7", "--field", "2,3,q")),
    ("C3.6", ("--max-n", "6")),
)


def run_round(seed: int) -> list:
    """The JSON reports of one round at ``seed``, without their
    ``order_search_stats``."""
    reports = []
    for claim, extra in ROUND:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify-theorem", claim, "--trials", "1", *extra,
                             "--seed", str(seed), "--json"])
        if code != 0:
            raise SystemExit(f"verify-theorem {claim} --seed {seed} exited {code}")
        report = json.loads(out.getvalue())
        del report["order_search_stats"]
        reports.append(report)
    return reports


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED", help="round seeds")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    rounds = [run_round(seed) for seed in args.seeds]
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256()
    for reports in rounds:
        for report in reports:
            digest.update(json.dumps(report, sort_keys=True).encode() + b"\n")
    print(f"{len(rounds)} rounds of {len(ROUND)} claims")
    print(f"rounds {elapsed:.3f} s")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
