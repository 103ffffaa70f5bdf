"""simptop benchmark: one seeded workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload sampler --seed 1 --seconds 20 --trace 0

Run from the repository root, or any directory holding ``src/simptop`` and
``perfbench``.  The run sets up its inputs several times and reports the
median set-up time, then repeats passes over the same fixed cases until
``--seconds`` have gone, checks every pass's outputs, and prints the
metrics as the last line of standard output.  ``--trace 1`` alternates
untraced passes with passes traced at every layer boundary and prints the
per-layer metrics instead.  A results file (and with tracing, the spans)
is written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUPS = 5  # set-ups per run; setup_s is their median
MIN_PASSES = 3  # untraced run
MIN_PAIRS = 2  # traced run: (untraced, traced) pass pairs

MODULES = (
    "simptop.catalog",
    "simptop.census",
    "simptop.collapse",
    "simptop.complexes",
    "simptop.homology",
    "simptop.bistellar",
    "simptop.recognition",
)


class Namespace:
    """Freshly imported simptop modules, by short name."""

    def __init__(self):
        self.modules = {name: importlib.import_module(name) for name in MODULES}
        for name, module in self.modules.items():
            setattr(self, name.rsplit(".", 1)[1], module)


def fresh_import() -> Namespace:
    for name in [m for m in sys.modules if m == "simptop" or m.startswith("simptop.")]:
        del sys.modules[name]
    importlib.import_module("simptop")
    return Namespace()


class Pass:
    """One pass over every case: outputs and host-normalized seconds."""

    def __init__(self, sampler, items, intervals):
        self.items = items
        self.total_s, self.scale = [], []
        for start, end in intervals:
            seconds, factor = sampler.normalized(start, end)
            self.total_s.append(seconds)
            self.scale.append(factor)  # per case: NOMINAL_S / kernel seconds
        self.item_s = [sampler.normalized(*it.item_at)[0] for it in items]
        self.verdict_s = [sampler.normalized(*it.verdict_at)[0] for it in items]


def run_pass(sampler, workload, st, context, cases, tracer=None) -> Pass:
    items, intervals = [], []
    for i, case in enumerate(cases):
        if tracer:
            tracer.item = i
        start = time.perf_counter()
        items.append(workload.run(st, context, case))
        intervals.append((start, time.perf_counter()))
    return Pass(sampler, items, intervals)


def per_case_median(passes, field):
    """Each case's median over the passes of one normalized time field."""
    return [
        statistics.median(getattr(p, field)[i] for p in passes)
        for i in range(len(passes[0].items))
    ]


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def mismatches(workload, first: Pass, later: Pass) -> int:
    """Cases whose output in ``later`` differs from ``first``.

    The later pass's outputs are dropped afterwards, so memory does not
    grow with the number of passes.
    """
    missed = sum(
        1 for a, b in zip(first.items, later.items) if not workload.same(a, b)
    )
    for item in later.items:
        item.output = None
    return missed


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return done.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "simptop").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def per_layer(tracing, tracer, sampler, traced, plain_wall):
    """Per-layer metrics from the traced passes' spans.

    Self times are host-normalized with the scale of the case each span
    belongs to, and reported as the median over the traced passes.  The
    work counts must be equal in every traced pass; each pass that differs
    is returned as a count miss.
    """
    handler_ns = [dict() for _ in traced]
    for where, start, end in zip(sampler.spans, sampler.starts, sampler.ends):
        if where is not None:
            p, span = where
            handler_ns[p][span] = handler_ns[p].get(span, 0) + round((end - start) * 1e9)
    works, selfs = [], []
    for spans, counts, p, skip in zip(tracer.passes, tracer.counts, traced, handler_ns):
        calls, self_s = tracing.layer_totals(spans, p.scale, skip)
        work = dict(counts)
        for layer in tracer.layers:
            work[layer + ".calls"] = calls.get(layer, 0)
        works.append(work)
        selfs.append(self_s)
    work = works[0]
    count_misses = sum(1 for w in works[1:] if w != work)

    metrics = {}
    for layer in tracer.layers:
        metrics[layer + ".calls"] = (work[layer + ".calls"], "count")
        metrics[layer + ".self_s"] = (
            statistics.median(s.get(layer, 0.0) for s in selfs),
            "s",
        )
    for name in tracing.COUNTS:
        metrics[name] = (work.get(name, 0), "count")
    classify = work["bistellar.classify_move.calls"]
    metrics["bistellar.moves_returned_per_classify"] = (
        work.get("bistellar.moves_returned", 0) / classify if classify else 0.0,
        "ratio",
    )
    metrics["trace.overhead_ratio"] = (
        sum(per_case_median(traced, "total_s")) / plain_wall,
        "ratio",
    )
    return metrics, count_misses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "simptop" / "__init__.py").is_file():
        print(f"no simptop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import calibration
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; one of "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]

    sampler = calibration.Sampler()
    with sampler:
        setup_raw, setup_s = [], []
        for _ in range(SETUPS):
            start = time.perf_counter()
            st = fresh_import()
            context, cases = workload.setup(st, args.seed)
            end = time.perf_counter()
            setup_raw.append(end - start)
            setup_s.append(sampler.normalized(start, end)[0])
        if not Path(st.census.__file__).resolve().is_relative_to(SRC.resolve()):
            print("simptop was not imported from this checkout", file=sys.stderr)
            return 2

        tracer = None
        if args.trace:
            tracer = tracing.Tracer(st.modules)
            sampler.where = tracer.where
        plain, traced, pass_raw_s = [], [], []
        repeat_misses = 0
        began = time.perf_counter()
        while True:
            for traced_pass in (False, True) if tracer else (False,):
                gc.collect()
                start = time.perf_counter()
                if traced_pass:
                    tracer.begin_pass()
                    try:
                        done = run_pass(sampler, workload, st, context, cases, tracer)
                    finally:
                        tracer.end_pass()
                    traced.append(done)
                else:
                    done = run_pass(sampler, workload, st, context, cases)
                    pass_raw_s.append(time.perf_counter() - start)
                    plain.append(done)
                if done is not plain[0]:
                    repeat_misses += mismatches(workload, plain[0], done)
            elapsed = time.perf_counter() - began
            rounds = len(plain)
            if rounds >= (MIN_PAIRS if tracer else MIN_PASSES) and (
                elapsed + elapsed / rounds > args.seconds
            ):
                break
        measured_s = time.perf_counter() - began

    check = workload.check(st, context, cases, plain[0].items)
    failed = check.failed + repeat_misses
    attempted = check.attempted

    totals = per_case_median(plain, "total_s")
    item_s = per_case_median(plain, "item_s")
    verdict_s = per_case_median(plain, "verdict_s")
    decisions = sum(i.decisions for i in plain[0].items)
    decided = sum(i.decided for i in plain[0].items)
    wall_s = sum(totals)
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (wall_s, "s"),
        "item_ms_p50": (1000 * statistics.median(item_s), "ms"),
        "item_ms_p90": (1000 * p90(item_s), "ms"),
        "verdict_ms_p50": (1000 * statistics.median(verdict_s), "ms"),
        "verdict_ms_p90": (1000 * p90(verdict_s), "ms"),
        "decided_ratio": (decided / decisions, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "nominal_kernel_s": calibration.NOMINAL_S,
        "kernel_samples": len(sampler.kernel_s),
        "kernel_median_s": statistics.median(sampler.kernel_s),
        "setup_raw_s": setup_raw,
        "setup_normalized_s": setup_s,
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "pass_raw_s": pass_raw_s,
        "pass_normalized_s": [sum(p.total_s) for p in plain],
        "measured_s": measured_s,
        "cases": len(cases),
        "case_total_s": totals,
        "samples": {"item_ms": len(item_s), "verdict_ms": len(verdict_s)},
        "decisions": decisions,
        "decided": decided,
        "attempted": attempted,
        "check_failures": check.failed,
        "repeat_mismatches": repeat_misses,
        "notes": check.notes,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
    }

    metrics = end_to_end
    if tracer:
        metrics, count_misses = per_layer(tracing, tracer, sampler, traced, wall_s)
        failed += count_misses
        record["count_mismatches"] = count_misses
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["failed"] = failed
    record["fail_ratio"] = failed / attempted

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        record["spans_file"] = f"{stem}-spans.csv.gz"
        record["spans"] = tracer.write(OUT / record["spans_file"], args.workload)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for note in check.notes:
        print("note:", note)
    print(
        f"{args.workload} seed={args.seed} passes={len(plain)}+{len(traced)} "
        f"cases={len(cases)} attempted={attempted} failed={failed} "
        f"fail_ratio={failed / attempted:.6f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
