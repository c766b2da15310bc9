"""Benchmark for simembed: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 45 --trace 0

One process, one thread, closed loop: the next operation starts when the
previous one returns.  The run sets up the workload several times (import
of ``simembed`` from ``src/`` plus input generation), then runs whole
passes of operations until ``--seconds`` have gone by.  Every answer is
checked outside the timed region.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs every pass twice, traced and untraced in
alternating order, to measure the tracing overhead, replays the geometric
predicates, and reports the per-layer metrics.  The names and
units reported are those in BENCHMARK.json; the last line of standard
output is one JSON object.  ``--workload all`` runs every workload, each in
its own process.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the benchmark leaves nothing behind in the tree

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
from time import perf_counter
from types import SimpleNamespace

# The program's own standard-library imports, loaded before the first timed
# set-up so that every set-up pays for the same work.
import dataclasses, enum, fractions, functools, itertools, typing  # noqa: E401,F401

from tracing import NullTracer, Tracer, self_times
from workloads import WORKLOADS, CheckFailed
import predicates

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("geom", "model", "planarity", "depth2", "leveltree",
           "counterexample", "analyzer", "cli")
SETUP_REPEATS = 7
PASSES = 24            # distinct passes generated; longer runs cycle through them
MIN_OPS = 100          # an untraced run's least number of operations
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10


def load_program() -> SimpleNamespace:
    for name in [k for k in sys.modules if k == "simembed" or k.startswith("simembed.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("simembed." + m) for m in MODULES})


def set_up(workload: str, seed: int):
    """Time SETUP_REPEATS set-ups; keep the last one's program and passes."""
    times = []
    for _ in range(SETUP_REPEATS):
        sm = passes = None  # let the previous set-up be collected first
        gc.collect()
        t0 = perf_counter()
        sm = load_program()
        passes = WORKLOADS[workload](sm, random.Random(seed), PASSES)
        times.append(perf_counter() - t0)
    gc.collect()
    return statistics.median(times), sm, passes


def run_pass(ops, tracer, p: int, records: list) -> None:
    """Run one pass, appending a record per operation:
    (pass, kind, seconds, counts, error)."""
    traced = isinstance(tracer, Tracer)
    for op in ops:
        res = err = counts = None
        t0 = perf_counter()
        try:
            if traced:
                with tracer.op(len(records), op.kind):
                    res = op.run(tracer)
            else:
                res = op.run(tracer)
        except Exception as e:  # any raise is a failed operation, reported below
            err = f"{type(e).__name__}: {e}"
        dt = perf_counter() - t0
        if err is None:
            try:
                counts = op.check(res)
            except CheckFailed as e:
                err = f"check failed: {e}"
        records.append((p, op.kind, dt, counts, err))
        del res


def measure(passes, seconds: float) -> list:
    """Untraced: whole passes, at least MIN_OPS operations and until
    `seconds` have passed."""
    records: list = []
    start, p = perf_counter(), 0
    while p == 0 or len(records) < MIN_OPS or perf_counter() - start < seconds:
        run_pass(passes[p % len(passes)], NullTracer(), p, records)
        p += 1
    return records


def measure_traced(passes, seconds: float, tracer: Tracer) -> tuple[list, list]:
    """Each pass twice, traced and untraced, the order alternating so that
    both see the same machine; whole passes until `seconds` pass."""
    traced: list = []
    plain: list = []
    start, p = perf_counter(), 0
    while p == 0 or perf_counter() - start < seconds:
        runs = [(tracer, traced), (NullTracer(), plain)]
        for tr, records in (runs if p % 2 == 0 else runs[::-1]):
            run_pass(passes[p % len(passes)], tr, p, records)
        p += 1
    return traced, plain


def totals(records, first_pass_only: bool = False) -> dict:
    """Sum the counts of the operations that passed; a key ending in .max
    keeps the largest value instead."""
    out: dict = {}
    for p, _, _, counts, err in records:
        if err is None and not (first_pass_only and p):
            for k, v in counts.items():
                out[k] = max(out.get(k, v), v) if k.endswith(".max") else out.get(k, 0) + v
    return out


def percentile(sorted_vals: list, q: float) -> float:
    pos = (len(sorted_vals) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_percentile(passes) -> float:
    """The highest ladder percentile with at least TAIL_BEYOND samples above
    it in the fewest samples an untraced run takes: MIN_OPS, or one pass.
    It depends on the workload only, so runs of faster and slower code
    report the same percentile."""
    least = max(MIN_OPS, min(len(p) for p in passes))
    return next(q for q in TAIL_LADDER
                if math.floor(least * (100 - q) / 100) >= TAIL_BEYOND or q == TAIL_LADDER[-1])


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def report_ops(records, tail_q: float) -> tuple[int, int, dict]:
    """Print how the operations went; return attempted, failed and the
    operation metrics."""
    attempted = len(records)
    failures = [r for r in records if r[4] is not None]
    ok = attempted - len(failures)
    op_time = sum(r[2] for r in records)
    durs = sorted(r[2] * 1e3 for r in records)
    values = {"ops_per_s": ok / op_time, "op_p50_ms": percentile(durs, 50),
              "op_tail_ms": percentile(durs, tail_q)}
    beyond = sum(1 for d in durs if d > values["op_tail_ms"])
    budget = totals(records).get("bench.budget_hits", 0)
    print(f"{attempted} ops, passes: {records[-1][0] + 1}, {op_time:.3f} s inside operations;"
          f" op_tail_ms is p{tail_q:g}, with {beyond} samples beyond it")
    print(f"failed_frac {len(failures) / attempted:.6g}  ({len(failures)}/{attempted}:"
          " raised or failed the output check)")
    print(f"budget_frac {budget / attempted:.6g}  ({budget}/{attempted}:"
          " answered budget-exceeded; not counted as failed)")
    for _, kind, _, _, err in failures[:5]:
        print(f"  failure in {kind}: {err}")
    kinds: dict = {}
    for _, kind, dt, _, _ in records:
        kinds.setdefault(kind, []).append(dt * 1e3)
    for kind in sorted(kinds):
        ds = sorted(kinds[kind])
        print(f"  {kind}: {len(ds)} ops, p50 {percentile(ds, 50):.6g} ms,"
              f" max {ds[-1]:.6g} ms, total {sum(ds) / 1e3:.3f} s")
    return attempted, len(failures), values


def layer_value(name: str, spans: dict, all_counts: dict, first: dict):
    for rate in ("nodes_per_s", "pairs_per_s", "vertices_per_s"):
        if name.endswith("." + rate):
            span = name[:-len(rate) - 1]
            busy = spans.get(span, (0, 0.0))[1]
            return all_counts.get(span + "." + rate[:-len("_per_s")], 0) / busy if busy else 0.0
    if name.endswith(".s"):
        calls, busy = spans.get(name[:-2], (0, 0.0))
        return busy / calls if calls else 0.0
    return first.get(name, 0)


def run_one(args, spec) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "simembed")):
        print(f"perfbench: no simembed package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    setup_s, sm, passes = set_up(args.workload, args.seed)
    tail_q = tail_percentile(passes)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("loop closed, 1 caller, single thread; no layer queues or waits,"
          " so time waited does not apply")

    if not args.trace:
        records = measure(passes, args.seconds)
        attempted, failed, values = report_ops(records, tail_q)
        values["setup_s"] = setup_s
    else:
        tracer = Tracer()
        records, plain = measure_traced(passes, args.seconds, tracer)
        attempted, failed, _ = report_ops(records, tail_q)
        spans = self_times(tracer.spans)
        all_counts, first = totals(records), totals(records, first_pass_only=True)
        op_time = sum(r[2] for r in records)
        values = {name: layer_value(name, spans, all_counts, first)
                  for name, _ in spec["per_layer"]}
        values.update(predicates.replay(sm, args.seed))
        values["bench.unattributed_frac"] = sum(
            busy for name, (_, busy) in spans.items() if name.startswith("op.")) / op_time
        values["bench.trace_overhead_frac"] = op_time / sum(r[2] for r in plain) - 1
        print(f"{len(tracer.spans)} spans; self time by span (calls, total s, share of op time):")
        for name, (calls, busy) in sorted(spans.items(), key=lambda kv: -kv[1][1]):
            print(f"  {name}: {calls}, {busy:.4f}, {busy / op_time:.4f}")
    values["peak_rss_mb"] = peak_rss_mb()
    print(f"setup_s is the median of {SETUP_REPEATS} set-ups")

    fp = totals(records, first_pass_only=True)
    print("fingerprint (first pass, exact): " + json.dumps(fp, sort_keys=True))
    print(f"run seed={args.seed} nproc={os.cpu_count()} python={platform.python_version()}"
          f" commit={commit()} peak_rss_mb={values['peak_rss_mb']:.1f}")

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    for name, unit in names:
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    spec = {k: [(m["name"], m["unit"]) for m in raw[k]] for k in ("end_to_end", "per_layer")}
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
