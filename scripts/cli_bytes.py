"""Hash the CLI's exit codes and output bytes over a fixed list of calls.

Each argv of ``ARGVS`` runs through ``cli.main`` in this process, in a
temporary directory that holds the graph files it names.  A ``SystemExit``
(help, usage and parser errors) is caught and its code kept.  Prints one
SHA-256 over every (argv, exit code, stdout, stderr), so two versions of
the package, or one version under two interpreters, can be compared on
the same calls:

    python scripts/cli_bytes.py

The list covers help, usage and parser errors as well as ordinary calls;
no call asks for ``--timings``.  Help is formatted 80 columns wide and the
default field is the built-in one, whatever the environment says.  The
package is imported from the ``src/`` beside this script.  Only the
standard library is used.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edgeideals import cli  # noqa: E402

GRAPHS = {
    "c5.graph": "5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n",
    "c4.graph": "4 4\n1 2\n2 3\n3 4\n4 1\n",
}

ARGVS = (
    # help and usage
    (),
    ("-h",),
    ("--help",),
    ("nope",),
    ("is-cm",),
    ("is-cm", "--help"),
    ("verify-theorem", "--help"),
    ("is-cm", "c5.graph", "-h"),
    # parser errors and what the parser accepts at the edges
    ("is-scm", "c5.graph", "--bogus"),
    ("is-scm", "c5.graph", "c4.graph"),
    ("is-scm", "c5.graph", "c4.graph", "--json", "x"),
    ("--json", "is-scm", "c5.graph"),
    ("is-scm", "c5.graph", "--jso"),
    ("is-scm", "c4.graph", "--fi", "3"),
    ("--", "is-scm", "c5.graph"),
    ("is-scm", "--", "c5.graph"),
    ("verify-theorem", "T3.2", "--trials", "x"),
    ("verify-theorem", "T9.9"),
    ("verify", "c4.graph", "--in", "payload.json", "--field", "q"),
    ("betti", "c4.graph", "--of", "nope"),
    ("covers", "c5.graph", "--size"),
    # input errors and ordinary calls
    ("is-scm", "missing.graph"),
    ("is-scm", "c5.graph"),
    ("is-scm", "c4.graph", "--json"),
    ("is-cm", "c5.graph", "--whisker", "1,2,3,4,5", "--json"),
    ("covers", "c5.graph", "--size", "3"),
    ("fixture", "EX3.9"),
    ("verify-theorem", "C4.2", "--trials", "2", "--seed", "5", "--json"),
)


def write_graphs(directory) -> None:
    """Write the graph files that ``ARGVS`` names into ``directory``."""
    for name, text in GRAPHS.items():
        (Path(directory) / name).write_text(text)


def outcome(main, argv) -> tuple:
    """(exit code, stdout, stderr) of ``main(list(argv))``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    os.environ["COLUMNS"] = "80"
    os.environ.pop(cli.FIELD_ENV, None)
    digest = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_graphs(directory)
        os.chdir(directory)
        try:
            for argv in ARGVS:
                record = [list(argv), *outcome(cli.main, argv)]
                digest.update(json.dumps(record).encode() + b"\n")
        finally:
            os.chdir(cwd)
    print(f"{len(ARGVS)} calls")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
