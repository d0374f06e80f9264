"""Command-line interface.

Exit codes: 0 the queried property holds (or the output was produced),
1 the property fails, 2 malformed input.  Outputs are byte-identical for
identical invocations; timings appear only under --timings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .errors import InputError, SearchBudgetExceeded
from .graphs import (Graph, add_whiskers, delete_vertices, format_graph,
                     minimal_vertex_covers, is_unmixed, parse_graph,
                     vertex_covers_of_size)
from . import monomials
from .quotients import has_dual_linear_quotients
from .homology import FieldSpec, betti_numbers
from .decide import DEFAULT_SEARCH_BUDGET, check_evidence, is_cm, is_sequentially_cm
from .harness import Campaign, run_campaign, run_fixture, CLAIM_STATEMENTS, FIXTURE_IDS

FIELD_ENV = "EDGEIDEALS_FIELD"


def _parse_vertex_list(text: str, n: int, what: str) -> list:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            v = int(piece)
        except ValueError:
            raise InputError(f"bad {what} list entry {piece!r}") from None
        if not 1 <= v <= n:
            raise InputError(f"{what} vertex {v} out of range 1..{n}")
        out.append(v - 1)
    return out


def _read_text(path: str) -> str:
    """The contents of ``path``, or of stdin for -."""
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_graph(args) -> Graph:
    G = parse_graph(_read_text(args.graph))
    if args.whisker:
        G, _ = add_whiskers(G, _parse_vertex_list(args.whisker, G.n, "whisker"))
    if args.delete:
        G = delete_vertices(G, _parse_vertex_list(args.delete, G.n, "delete"))
    return G


def _mono_text(support, labels) -> str:
    return "*".join(labels[v] for v in sorted(support)) if support else "1"


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        if args.timings:
            payload = dict(payload)
            payload["timings"] = {"seconds": round(time.perf_counter() - args.t0, 6)}
        print(json.dumps(payload, sort_keys=True))
    else:
        sys.stdout.write(text)
        if args.timings:
            sys.stderr.write(f"elapsed: {time.perf_counter() - args.t0:.6f}s\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_dual(args) -> int:
    G = _load_graph(args)
    dual = monomials.alexander_dual_of_edge_ideal(G)
    lines = [f"dual generators ({len(dual)}):"]
    lines += [f"  {_mono_text(g.support, G.labels)}" for g in dual.gens]
    _emit(args, dual.to_json(G.labels), "\n".join(lines) + "\n")
    return 0


def _cmd_covers(args) -> int:
    G = _load_graph(args)
    if args.size is not None:
        covers = vertex_covers_of_size(G, args.size)
        title = f"vertex covers of size {args.size} ({len(covers)}):"
        unmixed = is_unmixed(G)
    else:
        covers = minimal_vertex_covers(G)
        title = f"minimal vertex covers ({len(covers)}):"
        unmixed = len({len(c) for c in covers}) <= 1
    lines = [title] + [f"  {_mono_text(c, G.labels)}" for c in covers]
    lines.append(f"unmixed: {str(unmixed).lower()}")
    payload = {
        "size": args.size,
        "covers": [[G.labels[v] for v in sorted(c)] for c in covers],
        "unmixed": unmixed,
    }
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_betti(args) -> int:
    G = _load_graph(args)
    field = FieldSpec.parse(args.field)
    ideal = (monomials.edge_ideal(G) if args.of == "edge"
             else monomials.alexander_dual_of_edge_ideal(G))
    if args.component is not None:
        ideal = monomials.squarefree_degree_component(ideal, args.component)
    table = betti_numbers(ideal, field)
    payload = table.to_json(G.labels)
    payload["of"] = args.of
    payload["component"] = args.component
    _emit(args, payload, table.to_text())
    return 0


def _cmd_lin_quotients(args) -> int:
    G = _load_graph(args)
    report = has_dual_linear_quotients(G, budget=DEFAULT_SEARCH_BUDGET)
    lines = []
    for d in sorted({*report.per_degree, *report.unknown}):
        q = report.per_degree.get(d)
        if d in report.unknown:
            lines.append(f"degree {d}: unknown (search budget exceeded)")
        elif q is None:
            lines.append(f"degree {d}: no linear-quotients order exists")
        else:
            sizes = ",".join(str(s) for s in q.step_sizes())
            lines.append(f"degree {d}: certified ({len(q.gens)} generators; colon sizes {sizes})")
    verdict = report.verdict
    lines.append(f"dual linear quotients: {str(verdict).lower()}")
    _emit(args, report.to_json(G.labels), "\n".join(lines) + "\n")
    return 0 if verdict is True else 1


def _verdict_text(v, labels) -> str:
    kind = v.evidence.kind
    if kind == "quotient-certificates":
        why = "dual linear quotients, field-independent"
    elif kind == "zero-ideal-convention":
        why = "edgeless graph convention, field-independent"
    elif kind == "componentwise-scan":
        why = f"componentwise linear dual over field {v.field}"
    else:
        b = _mono_text(v.evidence.multidegree, labels)
        why = (f"nonlinear syzygy: dual component degree {v.evidence.degree}, "
               f"index {v.evidence.index}, multidegree {b}; field {v.field}")
    line = f"{v.property}: {str(v.value).lower()} ({why})"
    if v.unmixed is not None:
        line += f"\nunmixed: {str(v.unmixed).lower()}"
    return line + "\n"


def _cmd_decide(args) -> int:
    """is-scm and is-cm: ``args.decide`` is the deciding function."""
    G = _load_graph(args)
    v = args.decide(G, FieldSpec.parse(args.field))
    _emit(args, v.to_json(G.labels), _verdict_text(v, G.labels))
    return 0 if v.value else 1


def _cmd_whisker(args) -> int:
    G = _load_graph(args)
    _emit(args, {"n": G.n, "graph": format_graph(G), "labels": list(G.labels)},
          format_graph(G))
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    G = _load_graph(args)
    try:
        data = json.loads(_read_text(args.infile))
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON: {exc}") from None
    ok, why = check_evidence(G, data)
    _emit(args, {"verified": ok, "reason": why},
          f"verified: {str(ok).lower()} ({why})\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# harness subcommands


def _cmd_verify_theorem(args) -> int:
    fields = tuple(FieldSpec.parse(f) for f in args.field.split(","))
    campaign = Campaign(args.id, trials=args.trials, max_n=args.max_n,
                        seed=args.seed, fields=fields)
    report = run_campaign(campaign)
    _emit(args, report.to_json(), report.to_text())
    return 0 if report.ok else 1


def _cmd_fixture(args) -> int:
    result = run_fixture(args.id)
    _emit(args, result.to_json(), result.to_text())
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# parser


def _add_graph_options(p):
    p.add_argument("graph", help="graph file in 'n m' + edge-list format, or - for stdin")
    p.add_argument("--whisker", metavar="V1,V2,...",
                   help="attach a pendant vertex at each listed vertex (1-based; applied first)")
    p.add_argument("--delete", metavar="V1,V2,...",
                   help="delete the listed vertices (1-based; applied after --whisker)")


def _add_output_options(p, field=True):
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--timings", action="store_true", help="report elapsed time")
    if field:
        p.add_argument("--field", metavar="q|2|3|p:<n>",
                       help="coefficient field (default from $EDGEIDEALS_FIELD, else 2)")


@functools.cache
def _parsers() -> tuple:
    """The top-level parser and its map from command names to their parsers
    (the subparsers action's ``choices``), built once per process."""
    ap = argparse.ArgumentParser(
        prog="edgeideals",
        description="Decide sequential Cohen-Macaulayness of graph edge ideals "
                    "via Alexander duality, with checkable certificates.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="minimal vertex covers as dual generators")
    _add_graph_options(p)
    _add_output_options(p, field=False)
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("covers", help="minimal vertex covers, or all covers of one size")
    _add_graph_options(p)
    p.add_argument("--size", type=int, default=None, help="list all covers of this size")
    _add_output_options(p, field=False)
    p.set_defaults(fn=_cmd_covers)

    p = sub.add_parser("betti", help="Betti table of the dual (or edge) ideal")
    _add_graph_options(p)
    p.add_argument("--of", choices=("dual", "edge"), default="dual")
    p.add_argument("--component", type=int, default=None,
                   help="restrict to the square-free degree-d component")
    _add_output_options(p)
    p.set_defaults(fn=_cmd_betti)

    p = sub.add_parser("lin-quotients", help="per-degree dual linear-quotients certificates")
    _add_graph_options(p)
    _add_output_options(p, field=False)
    p.set_defaults(fn=_cmd_lin_quotients)

    p = sub.add_parser("is-scm", help="sequentially Cohen-Macaulay verdict")
    _add_graph_options(p)
    _add_output_options(p)
    p.set_defaults(fn=_cmd_decide, decide=is_sequentially_cm)

    p = sub.add_parser("is-cm", help="Cohen-Macaulay verdict")
    _add_graph_options(p)
    _add_output_options(p)
    p.set_defaults(fn=_cmd_decide, decide=is_cm)

    p = sub.add_parser("whisker", help="print the transformed graph")
    _add_graph_options(p)
    _add_output_options(p, field=False)
    p.set_defaults(fn=_cmd_whisker)

    p = sub.add_parser("verify", help="re-check a verdict, report, or certificate JSON")
    _add_graph_options(p)
    p.add_argument("--in", dest="infile", default="-", metavar="FILE",
                   help="JSON payload to verify (default stdin)")
    _add_output_options(p, field=False)  # the payload names its own field
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("verify-theorem", help="run a randomized verification campaign")
    p.add_argument("id", choices=sorted(CLAIM_STATEMENTS),
                   help="claim identifier")
    p.add_argument("--trials", type=int, default=100,
                   help="sampled trials per claim (default 100); T3.7 ignores it and "
                        "reports the labelled pairs it swept")
    p.add_argument("--max-n", type=int, default=7, dest="max_n",
                   help="T3.7 sweeps every graph and subset exhaustively through "
                        "min(max-n, 6) vertices; the other claims sample graphs with "
                        "up to max-n vertices (default 7)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field",
                   help="comma-separated field list (default from $EDGEIDEALS_FIELD, else 2)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=_cmd_verify_theorem)

    p = sub.add_parser("fixture", help="recompute a published example and diff it")
    p.add_argument("id", choices=list(FIXTURE_IDS))
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=_cmd_fixture)

    return ap, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser, built once per process.

    ``main`` parses through it only when ``argv`` names no command (no
    arguments, ``-h``/``--help``, an unknown command or an option before
    the command); a named command's arguments go straight to that
    command's parser.  ``--field`` has no parser default: ``main`` fills in
    $EDGEIDEALS_FIELD.
    """
    return _parsers()[0]


def main(argv=None) -> int:
    """Run the command that ``argv`` (default ``sys.argv[1:]``) names and
    return its exit code.

    Each call parses its arguments once.  When ``argv[0]`` names a command,
    ``argv[1:]`` goes straight to that command's parser, and arguments it
    leaves over are refused by the top-level parser's ``error``, as a
    top-level ``parse_args`` would refuse them.  Every other ``argv`` goes
    through ``build_parser().parse_args``.  Help, usage and error text are
    the same either way.
    """
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    if getattr(args, "field", "") is None:  # read when each command runs
        args.field = os.environ.get(FIELD_ENV, "2")
    args.t0 = time.perf_counter()
    try:
        return args.fn(args)
    except (InputError, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
