"""Benchmark for edgeideals: decide/verify latency, campaign rounds and the
T3.7 sweep, measured end to end through ``edgeideals.cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload whiskered --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Every op is an in-process call to ``edgeideals.cli.main(argv)`` with its
output captured and checked, from one process and one thread, closed loop.
Inputs are made during set-up: whiskered graphs from ``--seed``, and fixed
pools of field graphs and campaign round seeds in an order drawn from it.
Graphs reach the program only as graph files.  Times are scaled to the
speed of the machine that defined the benchmark (see Speed).
``--trace 1`` makes a separate traced run that wraps the program's
functions from the outside (see tracer.py) and reports per-layer metrics
instead.  The last line of standard output is the result
object; the line before it holds the full report.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import inputs

WORKLOADS = ("whiskered", "field", "campaigns")
FIELDS = ("2", "3", "q")
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 9
# One pass of ops is sized to take about this long at the commit that
# defined the benchmark; --seconds scales it.  Whole passes keep the mix of
# ops in a run fixed, which keeps medians steady.
PASS_SECONDS = 30.0
# A further pass runs only if it is expected to end within this share of
# --seconds.
OVERRUN = 1.25
# A decide+verify op repeats until it has taken PAIR_REPEAT_S or has run
# PAIR_REPEATS times, and its times are the medians of its repeats.  Short
# ops vary by a quarter from one call to the next on a shared host; their
# medians would otherwise decide the run's medians.
PAIR_REPEATS = 3
PAIR_REPEAT_S = 0.1

# Tail percentile per op kind: the highest multiple of 5 that leaves at least
# ten samples beyond it in one default-sized pass (sample count in brackets).
TAIL = {
    ("whiskered", "decide"): 55,   # [24]
    ("whiskered", "verify"): 55,   # [24]
    ("field", "decide"): 90,       # [105]
    ("field", "verify"): 90,       # [105]
    ("campaigns", "round"): 90,    # [180]
    ("campaigns", "sweep"): 55,    # [24]
}

END_TO_END_UNITS = {
    "call_ms_p50": "ms", "call_ms_tail": "ms",
    "recheck_ms_p50": "ms", "recheck_ms_tail": "ms",
    "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}

# Per-layer metrics in the result object.  Times that are zero by design on
# some workload (homology on whiskered, harness outside campaigns, the order
# search) are reported in the full report only: a time that reads the same
# on every run is not a measurement.
PER_LAYER_RESULT = (
    "graphs.self_ms", "graphs.covers_calls", "graphs.covers_ms", "graphs.covers_out",
    "graphs.subgraph_calls",
    "monomials.self_ms", "monomials.dual_calls", "monomials.component_calls",
    "monomials.component_gens",
    "quotients.self_ms", "quotients.dlq_calls", "quotients.order_build_calls",
    "quotients.order_build_ms", "quotients.search_calls", "quotients.search_found",
    "quotients.search_exhausted", "quotients.search_overruns",
    "quotients.verify_order_calls", "quotients.verify_order_gens",
    "homology.witness_calls", "homology.lattice_calls", "homology.lattice_points",
    "homology.complexes",
    "homology.rank_calls.gf2", "homology.rank_calls.modp", "homology.rank_calls.q",
    "homology.rank_cols.gf2", "homology.rank_cols.modp", "homology.rank_cols.q",
    "decide.self_ms", "harness.dlq_checks", "cli.self_ms", "trace.overhead_ratio",
)

# Campaigns of one round: every randomized claim, one trial each.
ROUND = (
    ("T3.2", ("--max-n", "7")),
    ("T3.3", ("--max-n", "7")),
    ("C3.4", ("--max-n", "7")),
    ("C3.5", ("--max-n", "7")),
    ("C4.2", ("--max-n", "7")),
    ("T4.1", ("--max-n", "7", "--field", "2,3,q")),
    ("C3.6", ("--max-n", "6")),
)
SWEEP_ARGV = ("verify-theorem", "T3.7", "--max-n", "4", "--json")
SWEEP_PAIRS = 1098   # labelled (G, S) pairs through 4 vertices

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Machine-speed calibration.  The speed of this kind of shared host drifts by
# a quarter or more over minutes, in CPU time as well as wall time, so every
# run also times a fixed piece of work that does not depend on the program,
# interleaved with the ops, and scales its times to the speed of the machine
# that defined the benchmark.  CAL_BLOCK_MS is the median time of one block
# there (2-core Intel Xeon VM, CPython 3.11.7); it is fixed for good.
CAL_BLOCK_MS = 2.0
# Calibration time after each op, as a share of the op's time (one block at
# least).
CAL_SHARE = 0.05
# The program's times move by about this power of the block's: fitted
# slopes of log op time on log block time were 0.55-0.75 in three sets of
# runs on that machine, so dividing by the whole factor over-corrects.
SPEED_EXPONENT = 0.7
_CAL_MASKS = tuple((i * 2654435761) & 0xFFFFF for i in range(48))


class BenchError(Exception):
    """The benchmark cannot run here (for example, no program to measure)."""


# ---------------------------------------------------------------------------
# set-up: inputs from the seed, written as graph files


def _write(workdir, name, n, edges):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs.graph_text(n, edges))
    return path


def _count(base, scale):
    return max(1, round(base * scale))


def _targets(lo, hi, k):
    return [lo + (hi - lo) * i / max(1, k - 1) for i in range(k)]


def setup_whiskered(rng, scale, workdir):
    """G(n, 0.4), n in {8, 9}, every vertex whiskered.

    Each graph is the first seeded draw whose whiskered cover count is within
    2% of a target, so every seed gets graphs of the same sizes: cost grows
    with the square of the cover count, and unmatched sizes would make the
    medians depend on the seed.
    """
    wanted = ([(8, t) for t in _targets(2600, 3400, _count(20, scale))]
              + [(9, t) for t in _targets(6200, 7400, _count(4, scale))])
    ops = []
    for k, (n, target) in enumerate(wanted):
        while True:
            _, edges = inputs.gnp(rng, n, 0.4)
            if abs(inputs.whiskered_cover_count(n, edges) - target) <= 0.02 * target:
                break
        path = _write(workdir, f"whiskered{k}.graph", n, edges)
        ops.append({"kind": "pair", "cmd": "is-cm", "graph": path,
                    "extra": ["--whisker", inputs.whisker_list(n)], "field": "2",
                    "expect": True, "label": f"G({n},0.4)#{k}"})
    rng.shuffle(ops)
    return ops


def setup_field(rng, scale, workdir):
    """RP2-SD under is-cm plus the G(14, 0.3) pool under is-scm, each in
    every field, in an order drawn from the seed.

    The pool is fixed so that its verdicts could be recorded (reference.json).
    The graphs are not relabelled per seed: the cost of the budgeted order
    search changes up to twofold with the labelling, which would make the
    figures depend on the seed more than on the program.  Of the first 26
    graphs, about half have verify calls of 4-7 ms and the rest of 23 ms or
    more, so the verify median would fall into that gap and jump from run to
    run; graphs 26-33 fill it.
    """
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    pool = min(_count(34, scale), len(ref["verdicts"]["2"]))
    graphs = [("rp2-sd", "is-cm", *inputs.rp2_sd(), {f: f != "2" for f in FIELDS})]
    for i in range(pool):
        n, edges = inputs.g14_pool_graph(i)
        graphs.append((f"g14-{i}", "is-scm", n, edges,
                       {f: ref["verdicts"][f][i] == "T" for f in FIELDS}))
    rng.shuffle(graphs)
    ops = []
    for label, cmd, n, edges, expect in graphs:
        path = _write(workdir, f"{label}.graph", n, edges)
        for f in FIELDS:
            ops.append({"kind": "pair", "cmd": cmd, "graph": path, "extra": [],
                        "field": f, "expect": expect[f], "label": label})
    return ops


def setup_campaigns(rng, scale, workdir):
    """Rounds of seven single-trial campaigns mixed with repeats of the
    exhaustive T3.7 sweep, in an order drawn from the workload seed.

    The round seeds are a fixed pool, like the field graphs.  Trial costs
    are heavy-tailed (T4.1's rejection sampling above all): two sets of 180
    rounds drawn from different workload seeds differed by a quarter in
    their median and by half in their p90, so the figures would depend on
    the seed more than on the program.
    """
    pool = random.Random("campaigns-pool")
    ops = [{"kind": "sweep", "label": "T3.7"} for _ in range(_count(24, scale))]
    ops += [{"kind": "round", "seed": pool.randrange(1 << 30), "label": "round"}
            for _ in range(_count(180, scale))]
    rng.shuffle(ops)
    return ops


SETUPS = {"whiskered": setup_whiskered, "field": setup_field, "campaigns": setup_campaigns}


def import_program():
    """Import edgeideals from ./src of the checkout, and nowhere else."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "edgeideals", "cli.py")):
        raise BenchError(f"no program to measure: {src}/edgeideals/cli.py is missing; "
                         "run from the root of a checkout")
    if src not in sys.path:
        sys.path.insert(0, src)
    import edgeideals.cli
    if not os.path.abspath(edgeideals.cli.__file__).startswith(src + os.sep):
        raise BenchError(f"edgeideals was imported from {edgeideals.cli.__file__}, not {src}")
    return edgeideals.cli


def setup(workload, seed, scale, workdir):
    """Import, generate inputs and write them; returns (cli module, ops)."""
    cli = import_program()
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}-{seed}")
    return cli, SETUPS[workload](rng, scale, workdir)


def measure_setup(args, workdir, speed):
    """Median wall time of a fresh interpreter doing the whole set-up, with
    calibration blocks after each."""
    times = []
    for k in range(SETUP_REPEATS):
        d = os.path.join(workdir, f"setup{k}")
        argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", d]
        # wait() without a timeout blocks in waitpid; with one it polls in
        # steps of up to 50 ms, which would quantize the measurement.
        t0 = time.perf_counter()
        rc = subprocess.Popen(argv, stdout=subprocess.DEVNULL).wait()
        times.append(time.perf_counter() - t0)
        speed.sample(times[-1])
        if rc != 0:
            raise BenchError(f"set-up in a fresh interpreter exited with {rc}")
        shutil.rmtree(d, ignore_errors=True)
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# machine speed


def _cal_block():
    """Pure-Python work of the kind the program's hot loops do: bitmask
    operations over a list of small ints."""
    acc = 0
    for r in range(300):
        nu = ~_CAL_MASKS[r % 48]
        v1 = 0
        diffs = []
        for p in _CAL_MASKS:
            d = p & nu
            diffs.append(d)
            if d & (d - 1) == 0:
                v1 |= d
        acc ^= v1 + len(diffs)
    return acc


class Speed:
    """Times calibration blocks between ops."""

    def __init__(self):
        self.blocks = []

    def sample(self, seconds):
        """Blocks for about CAL_SHARE of ``seconds``; returns the time taken."""
        t_start = time.perf_counter()
        for _ in range(max(1, round(seconds * CAL_SHARE * 1e3 / CAL_BLOCK_MS))):
            t0 = time.perf_counter()
            _cal_block()
            self.blocks.append(time.perf_counter() - t0)
        return time.perf_counter() - t_start

    def factor(self):
        """Median block time over CAL_BLOCK_MS: 1.2 means this run found the
        machine 20% slower than the machine that defined the benchmark."""
        return statistics.median(self.blocks) * 1e3 / CAL_BLOCK_MS


# ---------------------------------------------------------------------------
# ops


class Runner:
    """Runs ops through cli.main and checks every output."""

    def __init__(self, cli, workdir, speed=None, repeat=True):
        self.cli = cli
        self.speed = speed
        self.repeat = repeat
        self.cal_s = 0.0
        self.payload = os.path.join(workdir, "verdict.json")
        self.failures = []

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(argv))
        except Exception:
            rc = f"exception: {traceback.format_exc(limit=3)}"
        except SystemExit as exc:
            rc = f"exit {exc.code}: {err.getvalue().strip()[:200]}"
        return rc, out.getvalue(), time.perf_counter() - t0

    def fail(self, op, why):
        self.failures.append(f"{op['label']}: {why}")
        return False

    def pair(self, op, rec):
        """Decide, then verify the verdict; repeated while the op is short
        (see PAIR_REPEATS), unless the runner is told not to repeat."""
        decide, verify = [], []
        t0 = time.perf_counter()
        while True:
            if decide:
                gc.collect()
            if not self.pair_once(op, decide, verify):
                return False
            if (not self.repeat or len(decide) == PAIR_REPEATS
                    or time.perf_counter() - t0 >= PAIR_REPEAT_S):
                break
        rec["decide"], rec["verify"] = statistics.median(decide), statistics.median(verify)
        rec["pairs"] = len(decide)
        return True

    def pair_once(self, op, decide, verify):
        argv = [op["cmd"], op["graph"], *op["extra"], "--field", op["field"], "--json"]
        rc, out, t = self.call(argv)
        decide.append(t)
        if rc not in (0, 1):
            return self.fail(op, f"{op['cmd']} --field {op['field']} returned {rc}")
        try:
            value = json.loads(out)["value"]
        except (ValueError, KeyError, TypeError):
            return self.fail(op, f"{op['cmd']} printed no verdict")
        with open(self.payload, "w", encoding="utf-8") as fh:
            fh.write(out)
        # The garbage decide left would otherwise be collected during the
        # short verify call, at a point that varies from call to call.
        gc.collect()
        rc2, _, t = self.call(["verify", op["graph"], *op["extra"], "--in", self.payload])
        verify.append(t)
        if value is not op["expect"] or rc != (0 if value else 1):
            return self.fail(op, f"field {op['field']}: verdict {value} (exit {rc}), "
                                 f"expected {op['expect']}")
        if rc2 != 0:
            return self.fail(op, f"verify of the field {op['field']} verdict returned {rc2}")
        return True

    def round(self, op, rec):
        ok = True
        for claim, extra in ROUND:
            argv = ["verify-theorem", claim, "--trials", "1", *extra,
                    "--seed", str(op["seed"]), "--json"]
            rc, out, _ = self.call(argv)
            if rc != 0:
                ok = self.fail(op, f"verify-theorem {claim} --seed {op['seed']} returned {rc}")
        rec["trials"] = len(ROUND)
        return ok

    def sweep(self, op, rec):
        rc, out, _ = self.call(SWEEP_ARGV)
        try:
            passed = json.loads(out)["passed"]
        except (ValueError, KeyError, TypeError):
            passed = None
        if rc != 0 or passed != SWEEP_PAIRS:
            return self.fail(op, f"T3.7 sweep returned {rc} with passed={passed}")
        return True

    def run(self, op, tracer=None, op_id=0):
        rec = {"kind": op["kind"]}
        # Every op starts with no garbage left by earlier ones, as in a fresh
        # CLI process; collecting it during the op would make its time depend
        # on the ops before it.
        gc.collect()
        root = tracer.begin_op(op_id) if tracer else None
        t0 = time.perf_counter()
        rec["ok"] = getattr(self, op["kind"])(op, rec)
        rec["wall"] = time.perf_counter() - t0
        if tracer:
            tracer.end_op(root)
        if self.speed:
            self.cal_s += self.speed.sample(rec["wall"])
        return rec


def run_passes(runner, ops, seconds):
    """Whole passes over ``ops`` while the next is expected to end in time.
    Returns the records and the time spent in ops, calibration left out."""
    recs = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        for op in ops:
            recs.append(runner.run(op))
        now = time.perf_counter()
        if now - t0 + (now - start) > seconds * OVERRUN:
            return recs, now - t0 - runner.cal_s


# ---------------------------------------------------------------------------
# metrics


def percentile(values, p):
    """Percentile p, estimated as the mean of the samples ranked between
    p - 5 and p + 5; the median too (p = 50).  Ops come in clusters of
    similar cost (one graph in three fields, say); a single order statistic
    jumps from one cluster to the next with small timing noise, the local
    mean does not."""
    s = sorted(values)
    n = len(s)
    return statistics.fmean(s[int(n * (p - 5) / 100):math.ceil(n * (p + 5) / 100)])


def _summary(values, what, p):
    if not values:
        raise BenchError(f"no {what} op succeeded")
    return percentile(values, 50), percentile(values, p)


def scaled(recs, scale):
    """Records with every time divided by ``scale``."""
    return [{k: v / scale if k in ("decide", "verify", "wall") else v for k, v in r.items()}
            for r in recs]


def end_to_end(workload, recs):
    """Metrics under this workload's own names (decide and verify, or round
    and sweep), and the same figures under the result object's names.
    Failed ops are left out of the timings; they make the run incorrect."""
    ok = [r for r in recs if r["ok"]]
    if workload == "campaigns":
        rounds = [r["wall"] * 1e3 for r in ok if r["kind"] == "round"]
        sweeps = [r["wall"] for r in ok if r["kind"] == "sweep"]
        pr, ps = TAIL[(workload, "round")], TAIL[(workload, "sweep")]
        round_p50, round_tail = _summary(rounds, "round", pr)
        sweep_p50, sweep_tail = _summary(sweeps, "sweep", ps)
        trials_per_s = len(rounds) * len(ROUND) / (sum(rounds) / 1e3)
        named = {"round_ms_p50": (round_p50, "ms"), "round_ms_tail": (round_tail, "ms"),
                 "trials_per_s": (trials_per_s, "1/s"), "sweep_s": (sweep_p50, "s"),
                 "sweep_s_tail": (sweep_tail, "s")}
        counts = {"round": len(rounds), "sweep": len(sweeps),
                  "verify-theorem": len(rounds) * len(ROUND) + len(sweeps)}
        tails = {"round_ms_tail": pr, "sweep_s_tail": ps}
        figures = (round_p50, round_tail, sweep_p50 * 1e3, sweep_tail * 1e3, trials_per_s)
    else:
        pd, pv = TAIL[(workload, "decide")], TAIL[(workload, "verify")]
        decide_p50, decide_tail = _summary([r["decide"] * 1e3 for r in ok], "decide", pd)
        verify_p50, verify_tail = _summary([r["verify"] * 1e3 for r in ok], "verify", pv)
        # Each op counts once, at its median times, so that the repeats of
        # short ops do not weigh in.
        pairs_per_s = len(ok) / sum(r["decide"] + r["verify"] for r in ok)
        pairs = sum(r["pairs"] for r in ok)
        named = {"decide_ms_p50": (decide_p50, "ms"), "decide_ms_tail": (decide_tail, "ms"),
                 "verify_ms_p50": (verify_p50, "ms"), "verify_ms_tail": (verify_tail, "ms"),
                 "verdicts_per_s": (pairs_per_s, "1/s")}
        counts = {"ops": len(ok), "decide": pairs, "verify": pairs}
        tails = {"decide_ms_tail": pd, "verify_ms_tail": pv}
        figures = (decide_p50, decide_tail, verify_p50, verify_tail, pairs_per_s)
    result = dict(zip(("call_ms_p50", "call_ms_tail", "recheck_ms_p50", "recheck_ms_tail",
                       "work_per_s"), figures))
    return named, counts, tails, result


def machine():
    model = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version()}


def pass_scale(args):
    """Pass size relative to the default.  A traced run runs each op of a
    half-size pass twice: untraced, then traced."""
    return args.seconds / PASS_SECONDS / (2 if args.trace else 1)


def run_workload(args, workdir):
    import_program()
    speed = Speed()
    setup_s, setup_times = measure_setup(args, workdir, speed)
    cli, ops = setup(args.workload, args.seed, pass_scale(args), workdir)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine(), "ops_per_pass": len(ops),
              "setup_s_runs": setup_times}

    if not args.trace:
        runner = Runner(cli, workdir, speed)
        recs, elapsed = run_passes(runner, ops, args.seconds)
        # Times are reported at the speed of the machine that defined the
        # benchmark; the report keeps the measured ones too.
        factor = speed.factor()
        scale = factor ** SPEED_EXPONENT
        try:
            raw, _, _, _ = end_to_end(args.workload, recs)
            named, counts, tails, result = end_to_end(args.workload, scaled(recs, scale))
        except BenchError as exc:
            raise BenchError(f"{exc}; failures: {runner.failures[:5]}") from None
        failed = sum(1 for r in recs if not r["ok"])
        named["failed_ratio"] = (failed / len(recs), "ratio")
        named["setup_s"] = (setup_s / scale, "s")
        raw["setup_s"] = (setup_s, "s")
        named["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        result.update(setup_s=named["setup_s"][0], peak_rss_mb=named["peak_rss_mb"][0])
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result.items()}
        report.update(timed_s=elapsed, calibration_s=runner.cal_s, passes=len(recs) // len(ops),
                      op_counts=counts, tail_percentiles=tails, speed_factor=factor,
                      time_scale=scale, calibration_blocks=len(speed.blocks),
                      measured_metrics={k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
                      metrics={k: {"value": v, "unit": u} for k, (v, u) in named.items()})
    else:
        import tracer as tracing
        # Without repeats, so that counts per op do not depend on timing.
        runner = Runner(cli, workdir, repeat=False)
        tracer = tracing.Tracer()
        tracer.prepare()
        plain, traced = [], []
        # Each op runs untraced and traced, in turn first, so that drift in
        # machine speed and warm-up cancel out of the overhead ratio.
        for i, op in enumerate(ops):
            if i % 2:
                plain.append(runner.run(op))
            tracer.install()
            try:
                traced.append(runner.run(op, tracer, i))
            finally:
                tracer.uninstall()
            if not i % 2:
                plain.append(runner.run(op))
        plain_s = sum(r["wall"] for r in plain)
        traced_s = sum(r["wall"] for r in traced)
        recs = plain + traced
        failed = sum(1 for r in recs if not r["ok"])
        layers, check = tracer.layer_metrics(len(traced), {i: r["wall"] for i, r in
                                                           enumerate(traced)})
        layers["trace.overhead_ratio"] = traced_s / plain_s
        check["ok"] = check["max_rel"] <= 0.01 or check["max_abs_ms"] <= 0.5
        if not check["ok"]:
            runner.failures.append(f"layer self times do not sum to op wall times: {check}")
        spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}.bin")
        tracer.dump(spans_path)
        units = {k: ("ratio" if k.endswith("ratio") else "ms" if "_ms" in k
                     else "count") for k in layers}
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in PER_LAYER_RESULT}
        report.update(untraced_s=plain_s, traced_s=traced_s, traced_ops=len(traced),
                      spans=tracer.spans(), spans_file=spans_path, self_time_check=check,
                      op_counts={"untraced": len(plain), "traced": len(traced)},
                      wrapped=tracer.wrapped, unwrapped=tracer.unwrapped,
                      metrics={k: {"value": v, "unit": units[k]} for k, v in layers.items()})
    report["failures"] = runner.failures
    result_line = {"correct": not runner.failures and failed == 0, "attempted": len(recs),
                   "failed": failed, "metrics": metrics}
    return report, result_line


def run_all(args):
    """Every workload, each in its own interpreter; prints one table."""
    rows, results = [], {}
    for w in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", w,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            raise BenchError(f"workload {w} failed: {proc.stderr.strip()[-500:]}")
        report, results[w] = json.loads(lines[-2]), json.loads(lines[-1])
        for name, m in report["metrics"].items():
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            rows.append(f"{w:<10} {name:<32} {value:>12} {m['unit']}")
    print("\n".join(rows))
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        if args.setup_only:
            setup(args.workload, args.seed, pass_scale(args), args.workdir)
            return 0
        if args.workload == "all":
            print(json.dumps(run_all(args)))
            return 0
        workdir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
        try:
            report, result = run_workload(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
