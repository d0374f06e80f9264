"""Record the verdicts of the G(14, 0.3) pool into reference.json.

Run from the root of a checkout:  python3 perfbench/record_reference.py 96
The field workload fails an op whose verdict differs from this record.
Only verdict values are recorded, never evidence.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import inputs
import run


def main():
    size = int(sys.argv[1])
    cli = run.import_program()
    verdicts = {f: "" for f in run.FIELDS}
    with tempfile.TemporaryDirectory(dir=".") as d:
        for i in range(size):
            path = os.path.join(d, "g.graph")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inputs.graph_text(*inputs.g14_pool_graph(i)))
            for f in run.FIELDS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(["is-scm", path, "--field", f, "--json"])
                value = json.loads(out.getvalue())["value"]
                if rc != (0 if value else 1):
                    raise SystemExit(f"pool graph {i}, field {f}: exit {rc} for verdict {value}")
                verdicts[f] += "T" if value else "F"
    ref = {"pool": "graph i is inputs.g14_pool_graph(i): G(14, 0.3) from random.Random(i)",
           "property": "SCM", "verdicts": verdicts}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
