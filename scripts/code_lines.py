"""Count the code lines of each module of ``src/edgeideals/`` and their total.

A line is a code line when it holds a token that is not a comment, a
line break, an indent or dedent, or part of a docstring.  Docstrings are
the string statements that open a module, class or function body, found
with ``ast``; a multi-line token other than a docstring counts on every
line it spans.  Run from anywhere:

    python scripts/code_lines.py [FILE_OR_DIR ...]

With no argument it counts ``src/edgeideals/``.  Only the standard
library is used.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The line numbers covered by the docstrings of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python text ``source``."""
    skip = docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv) -> int:
    root = Path(__file__).resolve().parent.parent
    targets = [Path(a) for a in argv] or [root / "src" / "edgeideals"]
    files = [p for t in targets for p in (sorted(t.glob("*.py")) if t.is_dir() else [t])]
    total = 0
    for path in files:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
