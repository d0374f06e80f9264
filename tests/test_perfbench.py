"""The benchmark's tracer wraps library functions by name and sizes some of
their results; a rename or a changed return shape would silently null the
per-layer metrics reading it, or make the traced run fail."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import random
import time
from pathlib import Path

from edgeideals import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_measured_name_resolves():
    tracer = _load("tracer")
    missing = []
    for layer, names in tracer.MEASURED.items():
        assert layer in tracer.LAYERS
        mod = importlib.import_module(f"edgeideals.{layer}")
        missing += [f"{layer}.{name}" for name in names
                    if not inspect.isfunction(getattr(mod, name, None))]
    assert missing == []


def test_traced_ops_keep_their_exit_codes_and_sizes(tmp_path):
    # the traced run's contract: every measured function rebound by name,
    # every sizer applied to its result, the layer self times summing to
    # each op's wall time, and the exit codes of an untraced run
    tracing, inputs = _load("tracer"), _load("inputs")

    def graph_file(name, n, edges):
        path = tmp_path / f"{name}.graph"
        path.write_text(inputs.graph_text(n, edges))
        return str(path)

    payload = str(tmp_path / "verdict.json")

    def decide_and_verify(argv, graph, extra=()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main([argv[0], graph, *extra, *argv[1:]])
        Path(payload).write_text(out.getvalue())
        with contextlib.redirect_stdout(io.StringIO()):
            return rc, cli.main(["verify", graph, *extra, "--in", payload])

    def quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    ops, want = [], []
    for i, code in ((15, 1), (25, 0)):
        graph = graph_file(f"g14-{i}", *inputs.g14_pool_graph(i))
        for field in ("2", "3", "q"):
            ops.append(lambda g=graph, f=field: decide_and_verify(
                ["is-scm", "--field", f, "--json"], g))
            want.append((code, 0))
    # the GF(2) witness of g14-20 has |b| = d + 3, so over GF(3) the scan
    # still builds the component; those of g14-15 are reused in every field
    graph = graph_file("g14-20", *inputs.g14_pool_graph(20))
    ops.append(lambda: decide_and_verify(["is-scm", "--field", "3", "--json"], graph))
    want.append((1, 0))
    n, edges = inputs.gnp(random.Random(8), 8, 0.4)
    ops.append(lambda: decide_and_verify(["is-cm", "--json"], graph_file("whiskered", n, edges),
                                         ["--whisker", inputs.whisker_list(n)]))
    want.append((0, 0))
    ops.append(lambda: quiet(["verify-theorem", "T4.1", "--trials", "1", "--field", "2,3,q"]))
    ops.append(lambda: quiet(["verify-theorem", "T3.7", "--max-n", "3"]))
    want += [0, 0]

    tracer = tracing.Tracer()
    tracer.prepare()
    got, walls = [], {}
    tracer.install()
    try:
        for i, op in enumerate(ops):
            root = tracer.begin_op(i)
            t0 = time.perf_counter()
            got.append(op())
            walls[i] = time.perf_counter() - t0
            tracer.end_op(root)
    finally:
        tracer.uninstall()
    assert got == want
    assert tracer.unwrapped == []
    metrics, check = tracer.layer_metrics(len(ops), walls)
    assert check["max_rel"] <= 0.01 or check["max_abs_ms"] <= 0.5, check
    for name in ("graphs.covers_out", "monomials.component_gens", "quotients.verify_order_gens",
                 "homology.lattice_points", "homology.rank_cols.gf2",
                 "homology.rank_cols.modp", "homology.rank_cols.q"):
        assert metrics[name] > 0, name
