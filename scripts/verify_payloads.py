"""Time ``check_evidence`` on genuine and tampered payloads and hash its answers.

The genuine payloads are the verdicts of perfbench's ``field`` and
``whiskered`` workloads, made in this process: RP2-SD under ``is_cm`` and
the G(14, 0.3) pool under ``is_sequentially_cm``, each over GF(2), GF(3)
and Q, then the fully whiskered G(n, 0.4) graphs of one ``whiskered`` seed
under ``is_cm`` over GF(2).  The tampered payloads are copies of the
GF(2) certificate verdicts of the pool and of the first whiskered verdict,
each with one degree's certificate changed in one way (``TAMPERS``).

Prints the number of payloads, the median time of one pass of
``check_evidence`` over all of them, and one SHA-256 over every answer,
``(ok, reason)`` or the InputError raised, so two versions of the package
can be compared on the same work:

    python scripts/verify_payloads.py [--pool K] [--whiskered K] [--seed S] [--repeats R]

The package is imported from the ``src/`` beside this script, and the
benchmark's input generators from ``perfbench/inputs.py``.  Only the
standard library is used.
"""

import argparse
import copy
import hashlib
import random
import statistics
import sys
import time
from itertools import combinations
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "perfbench"))

import inputs  # noqa: E402
from edgeideals import (GF2, GF3, QQ, InputError, add_whiskers, check_evidence,  # noqa: E402
                        is_cm, is_sequentially_cm, parse_graph)

FIELDS = (GF2, GF3, QQ)
# the whiskered workload's cover-count targets: (n, low, high, how many)
WHISKERED_TARGETS = ((8, 2600, 3400, 20), (9, 6200, 7400, 4))


def _graph(n, edges):
    return parse_graph(inputs.graph_text(n, edges))


def field_verdicts(pool: int) -> list:
    """(graph, verdict JSON) for RP2-SD and the first ``pool`` graphs of the
    G(14, 0.3) pool, in every field."""
    out = []
    R = _graph(*inputs.rp2_sd())
    out += [(R, is_cm(R, f).to_json(R.labels)) for f in FIELDS]
    for i in range(pool):
        G = _graph(*inputs.g14_pool_graph(i))
        out += [(G, is_sequentially_cm(G, f).to_json(G.labels)) for f in FIELDS]
    return out


def whiskered_graphs(seed: int, count: int) -> list:
    """The first ``count`` fully whiskered graphs of the ``whiskered``
    workload at ``seed``, in the order the workload draws them."""
    rng = random.Random(f"whiskered-{seed}")
    out = []
    for n, lo, hi, k in WHISKERED_TARGETS:
        for j in range(k):
            if len(out) == count:
                return out
            target = lo + (hi - lo) * j / (k - 1)
            while True:
                _, edges = inputs.gnp(rng, n, 0.4)
                if abs(inputs.whiskered_cover_count(n, edges) - target) <= 0.02 * target:
                    break
            out.append(add_whiskers(_graph(n, edges), range(n))[0])
    return out


def _drop(G, cert):
    cert["ordered_gens"].pop()
    cert["colon_vars"].pop()


def _non_cover(G, cert):
    """Append the first degree-d label set, in lexicographic order, that is
    not a generator, with no colon variables; False when there is none."""
    d = len(cert["ordered_gens"][0])
    have = {tuple(g) for g in cert["ordered_gens"]}
    for names in combinations(G.labels, d):
        if names not in have:
            cert["ordered_gens"].append(list(names))
            cert["colon_vars"].append([])
            return True
    return False


def _repeat(G, cert):
    cert["ordered_gens"].append(list(cert["ordered_gens"][0]))
    cert["colon_vars"].append([])


def _colon(G, cert):
    last = cert["colon_vars"][-1]
    first = G.labels[0]
    cert["colon_vars"][-1] = [v for v in last if v != first] if first in last else [first] + last


def _swap(G, cert):
    """Swap the last two steps; False for a one-step certificate."""
    if len(cert["ordered_gens"]) < 2:
        return False
    for key in ("ordered_gens", "colon_vars"):
        cert[key][-2], cert[key][-1] = cert[key][-1], cert[key][-2]
    return True


def _vars(G, cert):
    cert["vars"].reverse()


# each changes one certificate in place; False means it does not apply
TAMPERS = (("drop", _drop), ("non-cover", _non_cover), ("repeat", _repeat),
           ("colon", _colon), ("swap", _swap), ("vars", _vars))


def tampered(G, data) -> list:
    """(graph, payload, tamper name) for each tamper of each degree of the
    certificate verdict ``data``, by degree, then in ``TAMPERS`` order."""
    out = []
    for d in data["evidence"]["per_degree"]:
        for name, tamper in TAMPERS:
            forged = copy.deepcopy(data)
            if tamper(G, forged["evidence"]["per_degree"][d]) is not False:
                out.append((G, forged, name))
    return out


def payloads(pool: int, whiskered: int, seed: int) -> list:
    """(graph, payload, kind): the genuine payloads, of kind "genuine", then
    the tampered ones, of their tamper's name."""
    genuine = field_verdicts(pool)
    genuine += [(W, is_cm(W, GF2).to_json(W.labels)) for W in whiskered_graphs(seed, whiskered)]
    certified = [(G, data) for G, data in genuine
                 if data["field"] == "2" and data["evidence"]["kind"] == "quotient-certificates"]
    # the field pool's certificate verdicts, then the first whiskered one
    chosen = [c for c in certified if c[0].n == 14] + [c for c in certified if c[0].n > 14][:1]
    return ([(G, data, "genuine") for G, data in genuine]
            + [t for G, data in chosen for t in tampered(G, data)])


def answer(G, data) -> str:
    """``check_evidence``'s answer as one line: ok and reason, or the error."""
    try:
        ok, reason = check_evidence(G, data)
    except InputError as exc:
        return f"InputError\t{exc}"
    return f"{ok}\t{reason}"


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", type=int, default=34, metavar="K",
                        help="G(14, 0.3) pool graphs (default 34, the whole field workload)")
    parser.add_argument("--whiskered", type=int, default=24, metavar="K",
                        help="whiskered graphs (default 24, one whole pass)")
    parser.add_argument("--seed", type=int, default=1, help="whiskered workload seed")
    parser.add_argument("--repeats", type=int, default=5, help="timed passes")
    args = parser.parse_args(argv)
    work = payloads(args.pool, args.whiskered, args.seed)
    answers = [answer(G, data) for G, data, _ in work]
    passes = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        for G, data, _ in work:
            answer(G, data)
        passes.append(time.perf_counter() - start)
    digest = hashlib.sha256("".join(a + "\n" for a in answers).encode())
    genuine = sum(a == "True\tverdict verified" for a in answers)
    print(f"{len(work)} payloads, {genuine} verified")
    print(f"check_evidence {statistics.median(passes) * 1000:.1f} ms per pass")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
