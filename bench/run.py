"""Seeded benchmark for lekit: lattice, validity and small-mix workloads.

Run from the repository root:

    python3 bench/run.py --workload lattice --seed 1 --seconds 10 --trace 0

The workload's inputs are drawn from --seed.  Set-up (a fresh import of
lekit plus turning the inputs into lekit objects) is repeated at least
SETUP_REPS times and for at least SETUP_SECONDS, and its median reported.
Then rounds of ops run in a closed loop with one client until --seconds of
op time are used, finishing the cycle through the workload's instance sets
that is in progress.  Every op's verdict is checked by an oracle after its
timer stops.

Times in the metrics are in reference seconds: an op's CPU time, scaled
by the nominal time of the workload's reference task over the readings of
that task taken around it every speed.PERIOD seconds, also during ops, so
that neither the stalls nor the drifting speed of a shared host show (see
speed.py).  The raw CPU and wall times are in the details line.

With --trace 0 the last line of standard output is the result with the
end-to-end metrics.  With --trace 1 every round runs untraced and then again
with the tracer installed; the result has the per-layer metrics, and
trace.overhead_frac compares the two passes.  The
line before the result holds the details (per-op latencies, anchors, run
metadata), which are also written to .bench_out/ with the traced spans.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path

import spans
import speed
from workloads import ROOT, WORKLOADS

SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3  # set-up runs at least this often
SETUP_SECONDS = 2.0  # and until this much wall time is used
TAIL_SAMPLES = 10

# ROADMAP baselines: (workload, op kind, op label, what, unit, baseline).
ANCHORS = (
    ("lattice", "enumerate", "pol18", "enumerate_concepts 18x18", "s", "0.76-0.85"),
    ("lattice", "algebra", "box16", "build_complex_algebra 16x16 box frame", "s", "2.7"),
    ("validity", "frame_valid", "anchor12", "frame_validates 12x12, 2 props", "us/valuation", "43"),
)


def fresh_import():
    """Import lekit from src/ as if for the first time in this process."""
    for name in [n for n in sys.modules if n == "lekit" or n.startswith("lekit.")]:
        del sys.modules[name]
    lk = importlib.import_module("lekit")
    importlib.import_module("lekit.cli")
    return lk


class Pass:
    """Latencies, failures and valuation counts of one pass over rounds.

    An op's interval waits in `pending` until the clock has a reading after
    it, then enters `samples` in scaled, CPU and wall seconds.
    """

    def __init__(self, pool, clock):
        self.clock = clock
        self.samples = []  # (kind, label, scaled, CPU and wall seconds)
        self.failures = []
        self.valuations = defaultdict(int)
        self.busy = 0.0  # scaled op seconds in samples
        self.cpu_busy = 0.0  # CPU op seconds in samples
        self.wall_busy = 0.0  # wall op seconds in samples
        self.wall = 0.0  # op intervals, pending ones too
        self.rounds = 0
        self.pool = pool
        self.pending = []

    def settle(self):
        """Move the op intervals that have a reading after them into samples."""
        while self.pending:
            kind, label, start, end = self.pending[0]
            timed = self.clock.times(start, end)
            if timed is None:
                return
            self.samples.append((kind, label, *timed))
            self.busy += timed[0]
            self.cpu_busy += timed[1]
            self.wall_busy += timed[2]
            self.pending.pop(0)

    def run_round(self, ops, tracer=None):
        for op in ops:
            if tracer is not None:
                tracer.begin_op(op.kind, op.label)
            start = speed.now()
            try:
                out, problem = op.run(), None
            except Exception as exc:  # an op that raises is a failed op
                out, problem = None, f"raised {exc!r}"
            end = speed.now()
            if tracer is not None:
                tracer.end_op()
            self.wall += end[0] - start[0]
            self.pending.append((op.kind, op.label, start, end))
            if problem is None:
                try:
                    problem = op.check(out)
                except Exception as exc:
                    problem = f"oracle raised {exc!r}"
            if problem is not None:
                self.failures.append(f"{op.kind}/{op.label}: {problem}")
            elif op.kind == "frame_valid":
                self.valuations[op.label] += out.valuations_checked
            del out
            self.settle()
        self.rounds += 1


def measure(rounds, seconds, clock, tracer=None):
    """Run whole pool cycles until `seconds` of untraced op time are used.

    Whole cycles make every run measure the same mix.  With a tracer, each
    round runs untraced and then again traced, so that drifts in machine
    speed hit both passes alike; returns (untraced, traced or None).
    """
    untraced = Pass(len(rounds), clock)
    traced = Pass(len(rounds), clock) if tracer is not None else None
    while True:
        ops = rounds[untraced.rounds % len(rounds)]
        untraced.run_round(ops)
        if tracer is not None:
            tracer.install()
            try:
                traced.run_round(ops, tracer)
            finally:
                tracer.uninstall()
        if untraced.wall >= seconds and untraced.rounds % len(rounds) == 0:
            clock.read_now()
            for run in (untraced, traced):
                if run is not None:
                    run.settle()
            return untraced, traced


def tail(latencies):
    """(percentile, value): the highest percentile with TAIL_SAMPLES above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_SAMPLES - 1, 0)
    return 100.0 * (k + 1) / n, ordered[k]


def window_tail(run, window):
    """The tail of each run of `window` rounds, and the median of those values.

    Every round of a workload has the same number of ops, so a window's tail
    percentile is fixed by the workload; a run holds whole cycles through
    the pool, and the pool a whole number of windows.
    """
    per_window = len(run.samples) * window // run.rounds
    lat = [s[2] for s in run.samples]
    tails = [tail(lat[i : i + per_window]) for i in range(0, len(lat), per_window)]
    return tails[0][0], per_window, statistics.median(t[1] for t in tails)


def end_to_end(run, window, setup, peak_rss_kb):
    lat = [s[2] for s in run.samples]
    pct, per_window, tail_value = window_tail(run, window)
    metrics = {
        "setup_s": (statistics.median(t[0] for t in setup), "s"),
        "ops_per_s": (len(lat) / run.busy, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    extra = {
        "op_tail_percentile": pct,
        "op_tail_samples_above": min(TAIL_SAMPLES, per_window - 1),
        "op_tail_samples_per_window": per_window,
        "op_tail_windows": run.rounds // window,
        "cycles": run.rounds // run.pool,
        "samples": len(lat),
        "fail_frac": len(run.failures) / len(lat),
        "setup_times_s": [t[0] for t in setup],
        "raw_cpu": {
            "setup_s": statistics.median(t[1] for t in setup),
            "ops_per_s": len(lat) / run.cpu_busy,
            "op_p50_ms": statistics.median(s[3] for s in run.samples) * 1e3,
        },
        "raw_wall": {
            "setup_s": statistics.median(t[2] for t in setup),
            "ops_per_s": len(lat) / run.wall_busy,
            "op_p50_ms": statistics.median(s[4] for s in run.samples) * 1e3,
            "setup_times_s": [t[2] for t in setup],
        },
        "reference_s": {
            "task": run.clock.task.__name__,
            "nominal": run.clock.nominal,
            "median": statistics.median(run.clock.values),
            "min": min(run.clock.values),
            "max": max(run.clock.values),
            "readings": len(run.clock.values),
        },
    }
    return metrics, extra


def per_op(run):
    groups = defaultdict(list)
    for kind, label, dt, _, wall in run.samples:
        groups[f"{kind}/{label}"].append((dt, wall))
    return {
        key: {
            "count": len(v),
            "median_ms": statistics.median(s for s, _ in v) * 1e3,
            "wall_median_ms": statistics.median(r for _, r in v) * 1e3,
            "total_s": sum(s for s, _ in v),
        }
        for key, v in sorted(groups.items())
    }


LAYERS = [spans.span_name(m, a) for m, a in spans.SPANNED + spans.RECURSIVE]


def per_layer(tracer, traced, untraced):
    calls = {n: tracer.total(n, tracer.calls) for n in LAYERS}
    self_s = {n: tracer.total(n, tracer.self_time) for n in LAYERS}
    incl = defaultdict(float)
    for (_, nid), t in tracer.incl.items():
        incl[tracer.names[nid]] += t
    c = tracer.counts
    metrics = {}
    for n in LAYERS:
        metrics[f"{n}.calls"] = (calls[n], "count")
        metrics[f"{n}.self_frac"] = (self_s[n] / traced.wall, "frac")
    metrics.update(
        {
            "polarity.closures": (c["polarity.closures"], "count"),
            "polarity.concepts": (c["polarity.concepts"], "count"),
            "polarity.concepts_per_closure": (
                c["polarity.concepts"] / max(c["polarity.closures"], 1),
                "ratio",
            ),
            "frame.sections": (c["frame.sections"], "count"),
            "algebra.elements": (c["algebra.elements"], "count"),
            "semantics.valuations": (c["semantics.valuations"], "count"),
            "semantics.valuations_per_possible": (
                c["semantics.valuations"] / max(c["semantics.possible_valuations"], 1),
                "ratio",
            ),
            "semantics.us_per_valuation": (
                incl["semantics.frame_validates"] / max(c["semantics.valuations"], 1) * 1e6,
                "us",
            ),
            "semantics.eval_formula.nodes": (c["semantics.eval_formula.nodes"], "count"),
            "fol.eval_fo.nodes": (c["fol.eval_fo.nodes"], "count"),
            "trace.overhead_frac": (traced.busy / untraced.busy - 1.0, "frac"),
        }
    )
    detail = {
        "self_s": self_s,
        "calls": calls,
        "fol.us_per_node": incl["fol.eval_fo"] / max(c["fol.eval_fo.nodes"], 1) * 1e6,
        "traced_op_s": traced.wall_busy,
        "untraced_op_s": untraced.wall_busy,
        "spans": len(tracer.name),
    }
    return metrics, detail


def anchors(workload, untraced, tracer):
    out = []
    fn = {
        "enumerate": "polarity.enumerate_concepts",
        "algebra": "algebra.build_complex_algebra",
        "frame_valid": "semantics.frame_validates",
    }
    for wl, kind, label, what, unit, baseline in ANCHORS:
        if wl != workload:
            continue
        # The baselines are wall times, so the anchors are too.
        lat = [wall for k, lb, _, _, wall in untraced.samples if k == kind and lb == label]
        nid = tracer.name_ids.get(fn[kind])
        traced = tracer.incl.get((label, nid), 0.0)
        if unit == "s":
            measured = statistics.median(lat)
            traced_per_call = traced / len(lat)
        else:
            vals = untraced.valuations[label]
            measured = sum(lat) / max(vals, 1) * 1e6
            traced_per_call = traced / max(vals, 1) * 1e6
        out.append(
            {
                "anchor": what,
                "unit": unit,
                "baseline": baseline,
                "untraced_op": measured,
                f"traced_{fn[kind]}": traced_per_call,
            }
        )
    return out


def source_commit():
    """The checked-out commit when a .git directory is present, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "lekit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metric_block(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(args):
    spec = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    lk = fresh_import()
    raw = spec.generate(lk, random.Random(f"lekit-bench/{args.workload}/{args.seed}"))
    OUT.mkdir(exist_ok=True)
    with speed.Clock(spec.reference) as clock, tempfile.TemporaryDirectory(
        dir=ROOT, prefix=".bench-tmp-"
    ) as tmp:
        intervals = []
        while len(intervals) < SETUP_REPS or sum(b[0] - a[0] for a, b in intervals) < SETUP_SECONDS:
            gc.collect()  # each rep starts from the same collector state
            start = speed.now()
            lk = fresh_import()
            objs = spec.convert(lk, raw)
            intervals.append((start, speed.now()))
        clock.read_now()
        setup = [clock.times(*iv) for iv in intervals]
        gc.collect()
        rounds = spec.rounds(lk, raw, objs, Path(tmp))
        tracer = None
        if args.trace:
            # The traced conversion covers frame_from_dict and friends.
            tracer = spans.Tracer(lk)
            tracer.install()
            try:
                tracer.begin_op("setup", "setup")
                spec.convert(lk, raw)
                tracer.end_op()
            finally:
                tracer.uninstall()
        spans.assert_untraced()
        untraced, traced = measure(rounds, args.seconds, clock, tracer)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        spans.assert_untraced()
    e2e, extra = end_to_end(untraced, spec.tail_rounds, setup, peak_rss_kb)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": source_commit(),
        "src_sha256": source_digest(),
        "rounds": untraced.rounds,
        "end_to_end": extra,
        "ops": per_op(untraced),
        "failures": untraced.failures[:20],
    }
    result_run, metrics = untraced, e2e
    if tracer is not None:
        metrics, layer_detail = per_layer(tracer, traced, untraced)
        layer_detail["anchors"] = anchors(args.workload, untraced, tracer)
        detail["layers"] = layer_detail
        detail["failures"] += traced.failures[:20]
        result_run = traced
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    result = {
        "correct": not untraced.failures and not result_run.failures,
        "attempted": len(result_run.samples),
        "failed": len(result_run.failures),
        "metrics": metric_block(metrics),
    }
    detail["result"] = result
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    for line in detail["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lekit" / "__init__.py").is_file():
        print(f"error: no lekit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
