"""Time the componentwise-linearity scan over whiskered graph classes.

Takes the first COUNT isomorphism classes of graphs G on VERTICES vertices
with a vertex subset S, in ascending order of their canonical forms (the
order ``harness._classes`` yields them in), whiskers S, and times
``is_componentwise_linear`` over the Alexander dual of each whiskered edge
ideal in the given field.  Prints the scan time
(class generation and duals excluded), the number of classes and
non-componentwise-linear duals, and a SHA-256 over the reports, so two
versions of the package can be compared on the same work:

    python scripts/scan_classes.py 2
    python scripts/scan_classes.py q --count 50 --vertices 5

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

from edgeideals.graphs import Graph, _default_labels, _whiskered_adj  # noqa: E402
from edgeideals.harness import _classes  # noqa: E402
from edgeideals.homology import FieldSpec, is_componentwise_linear  # noqa: E402
from edgeideals.monomials import alexander_dual_of_edge_ideal  # noqa: E402


def whiskered_duals(count: int, vertices: int) -> list:
    """(adjacency, S-mask, dual) for the first ``count`` classes on
    ``vertices`` vertices."""
    classes = next(c for n, c in _classes(vertices) if n == vertices)
    out = []
    for adj, smask in list(classes)[:count]:
        wadj = _whiskered_adj(adj, smask)
        dual = alexander_dual_of_edge_ideal(Graph._from_adj(wadj, _default_labels(len(wadj))))
        out.append((adj, smask, dual))
    return out


def report_line(adj, smask, report) -> str:
    """One class's report as a JSON line: its adjacency, S-mask, the
    per-degree outcomes and the witness (degree, index, sorted multidegree)."""
    w = report.witness
    return json.dumps([list(adj), smask, sorted(report.per_degree.items()),
                       None if w is None else [w[0], w[1], sorted(w[2])]])


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("field", help="q, or a prime")
    parser.add_argument("--count", type=int, default=600, help="classes to scan (default 600)")
    parser.add_argument("--vertices", type=int, default=6, help="vertices of G (default 6)")
    args = parser.parse_args(argv)
    field = FieldSpec.parse(args.field)
    duals = whiskered_duals(args.count, args.vertices)
    start = time.perf_counter()
    reports = [is_componentwise_linear(dual, field) for _, _, dual in duals]
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256()
    for (adj, smask, _), report in zip(duals, reports):
        digest.update(report_line(adj, smask, report).encode() + b"\n")
    failed = sum(not r.verdict for r in reports)
    print(f"field {field}: {len(reports)} classes on {args.vertices} vertices, "
          f"{failed} not componentwise linear")
    print(f"scan {elapsed:.3f} s")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
