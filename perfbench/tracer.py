"""Span tracer for the traced benchmark run.

It wraps functions of the loaded ``edgeideals`` modules from the outside
and edits no source file.  Each call of a wrapped function is one span:
name, start, end, parent span, op id, plus a size and an outcome recorded
at the same boundary.  Spans stay in memory in flat arrays and are written
out when the run ends; per-layer metrics are computed from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("graphs", "monomials", "quotients", "homology", "decide", "harness", "cli")

# Functions the per-layer metrics read, wrapped besides each module's public
# functions.  One that is missing (after a rename, say) is listed as
# unwrapped and the metrics that read it are null.
MEASURED = {
    "graphs": ("_covers_by_size", "induced_subgraph", "delete_vertices"),
    "monomials": ("alexander_dual_of_edge_ideal", "squarefree_degree_component"),
    "quotients": ("has_dual_linear_quotients", "_search_masks", "_order_from_masks",
                  "verify_order"),
    "homology": ("nonlinear_witness", "_lcm_lattice", "reduced_homology_ranks",
                 "_rank_gf2", "_rank_modp", "_rank_exact"),
    "harness": ("run_campaign",),
}

# ``_step_linear`` is left unwrapped on purpose: it runs millions of times
# per run, so a wrapper would cost more than the work it times.  Its cost
# lands in quotients.self_ms and quotients.order_build_ms.


def _size_of_len(result, args):
    return len(result)


def _size_of_covers(result, args):
    return sum(len(v) for v in result.values())


def _size_of_gens(result, args):
    return len(result.gens)


def _size_of_cols(result, args):
    return len(args[0])


def _size_of_order(result, args):
    return len(args[0].ideal.gens)


# name -> what the span records as its size
SIZES = {
    "graphs._covers_by_size": _size_of_covers,
    "monomials.squarefree_degree_component": _size_of_gens,
    "homology._lcm_lattice": _size_of_len,
    "homology._rank_gf2": _size_of_cols,
    "homology._rank_modp": _size_of_cols,
    "homology._rank_exact": _size_of_cols,
    "quotients.verify_order": _size_of_order,
}

OUT_OK, OUT_NONE, OUT_RAISED = 0, 1, 2
# span columns: start, end, name index, parent span, op id, size, outcome
COLUMNS = ("t0", "t1", "name", "parent", "op", "size", "outcome")


class Tracer:
    def __init__(self):
        self.names = []
        self.t0 = array("d")
        self.t1 = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.outcome = array("b")
        self.raised = {}
        self.stack = []
        self.op_id = -1
        self.wrapped = []
        self.unwrapped = []
        self.bindings = []

    # -- recording -----------------------------------------------------------

    def _open(self, idx):
        sid = len(self.t0)
        self.name.append(idx)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.size.append(0)
        self.outcome.append(OUT_OK)
        self.t1.append(0.0)
        self.stack.append(sid)
        self.t0.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.t1[sid] = time.perf_counter()
        self.stack.pop()

    def _name_index(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def begin_op(self, op_id):
        self.op_id = op_id
        return self._open(self._op_name)

    def end_op(self, sid):
        self._close(sid)
        self.op_id = -1

    def wrap(self, name, fn):
        idx = self._name_index(name)
        sizer = SIZES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(sid)
                tracer.outcome[sid] = OUT_RAISED
                tracer.raised[sid] = type(exc).__name__
                raise
            tracer._close(sid)
            if result is None:
                tracer.outcome[sid] = OUT_NONE
            elif sizer is not None:
                tracer.size[sid] = sizer(result, args)
            return result

        return traced

    def prepare(self, package="edgeideals"):
        """Wrap every public function and measured function of the package.

        Every binding of each function object across the package's modules
        is recorded (``quotients`` imports ``_covers_by_size`` by name, for
        example), so that install() and uninstall() can swap them all.
        """
        self._op_name = self._name_index("bench.op")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            targets = {}
            if mod is not None:
                for attr, obj in vars(mod).items():
                    if (not attr.startswith("_") and inspect.isfunction(obj)
                            and obj.__module__ == mod.__name__
                            and not inspect.isgeneratorfunction(obj)):
                        targets[attr] = obj
            for attr in MEASURED.get(layer, ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj):
                    targets[attr] = obj
                else:
                    self.unwrapped.append(f"{layer}.{attr}")
            for attr, obj in sorted(targets.items()):
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for m in modules:
                    for k, v in vars(m).items():
                        if v is obj:
                            self.bindings.append((m, k, obj, wrapper))
                self.wrapped.append(f"{layer}.{attr}")

    def install(self):
        for m, k, _, wrapper in self.bindings:
            setattr(m, k, wrapper)

    def uninstall(self):
        for m, k, original, _ in self.bindings:
            setattr(m, k, original)

    # -- analysis ------------------------------------------------------------

    def spans(self):
        return len(self.t0)

    def dump(self, path):
        """Write every span: one JSON header line, then each column as a raw
        array in the header's order, byte order and type codes."""
        header = {"count": len(self.t0), "byteorder": sys.byteorder, "names": self.names,
                  "columns": {c: getattr(self, c).typecode for c in COLUMNS},
                  "outcomes": {"0": "returned", "1": "returned None", "2": "raised"},
                  "raised": {str(k): v for k, v in self.raised.items()}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in COLUMNS:
                getattr(self, c).tofile(fh)

    def self_times(self):
        """Per-span self time: duration minus the time its child spans cover."""
        n = len(self.t0)
        dur = [self.t1[s] - self.t0[s] for s in range(n)]
        child = [0.0] * n
        for s in range(n):
            p = self.parent[s]
            if p >= 0:
                child[p] += dur[s]
        return dur, [dur[s] - child[s] for s in range(n)]

    def layer_metrics(self, n_ops, op_walls):
        """Per-layer metrics, each per traced op, plus the self-time check.

        ``op_walls`` maps op id to the op's wall time measured around its
        root span by the caller.
        """
        dur, own = self.self_times()
        names = self.names
        calls, secs, sizes = Counter(), Counter(), Counter()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        op_self = Counter()
        search = Counter()
        in_campaign = bytearray(len(dur))
        dlq_checks = 0
        bench_self = 0.0
        for s in range(len(dur)):
            nm = names[self.name[s]]
            layer = nm.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += own[s]
            elif layer == "bench":
                bench_self += own[s]
            op_self[self.op[s]] += own[s]
            calls[nm] += 1
            secs[nm] += dur[s]
            sizes[nm] += self.size[s]
            p = self.parent[s]
            inside = p >= 0 and in_campaign[p]
            in_campaign[s] = inside or nm == "harness.run_campaign"
            if nm == "quotients.has_dual_linear_quotients" and inside:
                dlq_checks += 1
            if nm == "quotients._search_masks":
                out = self.outcome[s]
                if out == OUT_RAISED and self.raised[s] == "SearchBudgetExceeded":
                    search["overruns"] += 1
                    search["overrun_s"] += dur[s]
                elif out == OUT_NONE:
                    search["exhausted"] += 1
                elif out == OUT_OK:
                    search["found"] += 1

        missing = set(self.unwrapped)

        def per_op(value, *needs):
            if any(n in missing for n in needs):
                return None
            return value / n_ops

        def count(fn):
            return per_op(calls[fn], fn)

        def ms(fn):
            return per_op(secs[fn] * 1000.0, fn)

        def size(fn):
            return per_op(sizes[fn], fn)

        cover, search_fn, rank = "graphs._covers_by_size", "quotients._search_masks", {
            "gf2": "homology._rank_gf2", "modp": "homology._rank_modp", "q": "homology._rank_exact"}
        m = {f"{layer}.self_ms": layer_self[layer] * 1000.0 / n_ops for layer in LAYERS}
        m["bench.self_ms"] = bench_self * 1000.0 / n_ops
        m.update({
            "graphs.covers_calls": count(cover),
            "graphs.covers_ms": ms(cover),
            "graphs.covers_out": size(cover),
            "graphs.subgraph_calls": per_op(calls["graphs.induced_subgraph"]
                                            + calls["graphs.delete_vertices"],
                                            "graphs.induced_subgraph", "graphs.delete_vertices"),
            "monomials.dual_calls": count("monomials.alexander_dual_of_edge_ideal"),
            "monomials.component_calls": count("monomials.squarefree_degree_component"),
            "monomials.component_gens": size("monomials.squarefree_degree_component"),
            "quotients.dlq_calls": count("quotients.has_dual_linear_quotients"),
            "quotients.order_build_calls": count("quotients._order_from_masks"),
            "quotients.order_build_ms": ms("quotients._order_from_masks"),
            "quotients.search_calls": count(search_fn),
            "quotients.search_ms": ms(search_fn),
            "quotients.search_found": per_op(search["found"], search_fn),
            "quotients.search_exhausted": per_op(search["exhausted"], search_fn),
            "quotients.search_overruns": per_op(search["overruns"], search_fn),
            "quotients.search_overrun_ms": per_op(search["overrun_s"] * 1000.0, search_fn),
            "quotients.search_useful_ratio": (
                None if search_fn in missing or not calls[search_fn]
                else (search["found"] + search["exhausted"]) / calls[search_fn]),
            "quotients.verify_order_calls": count("quotients.verify_order"),
            "quotients.verify_order_ms": ms("quotients.verify_order"),
            "quotients.verify_order_gens": size("quotients.verify_order"),
            "homology.witness_calls": count("homology.nonlinear_witness"),
            "homology.lattice_calls": count("homology._lcm_lattice"),
            "homology.lattice_points": size("homology._lcm_lattice"),
            "homology.complexes": count("homology.reduced_homology_ranks"),
            "homology.complex_ms": ms("homology.reduced_homology_ranks"),
            "harness.dlq_checks": per_op(dlq_checks, "harness.run_campaign",
                                         "quotients.has_dual_linear_quotients"),
        })
        for field, fn in rank.items():
            m[f"homology.rank_calls.{field}"] = count(fn)
            m[f"homology.rank_ms.{field}"] = ms(fn)
            m[f"homology.rank_cols.{field}"] = size(fn)
        worst = max((abs(op_self[o] - w) for o, w in op_walls.items()), default=0.0)
        worst_rel = max((abs(op_self[o] - w) / w for o, w in op_walls.items() if w > 0),
                        default=0.0)
        check = {"ops": len(op_walls), "max_abs_ms": worst * 1000.0, "max_rel": worst_rel}
        return m, check
