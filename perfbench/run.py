"""Benchmark of ramsey3: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload search|assemble|lab --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With --trace 0 the run sets up
SETUP_REPEATS times (reporting the median), then makes as many whole
passes over the workload's operation list as fit in S seconds at a
nominal pass length (at least one), and prints the end-to-end metrics.  With --trace 1 it makes one untraced pass and one
traced pass, prints the per-layer metrics, and writes the spans to
.perfbench_out/.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

from bench import OUT, SRC, Pass, pass_rng

SETUP_REPEATS = 5
WALL_LIMIT_S = 120  # no new pass starts after this, so a run ends within 180 s

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "results_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {"calls": "count", "nodes": "count", "edges_out": "count", "nodes_per_s": "1/s",
                   "free_n_max": "count", "forced_t_max": "count", "bytes_in": "bytes", "bytes_out": "bytes"}


def _workload(name: str):
    if name == "search":
        import search as wl
    elif name == "assemble":
        import assemble as wl
    else:
        import lab as wl
    return wl


def _peak_rss_mib(name: str) -> float:
    """Peak resident memory in MiB: of the largest child for assemble, else of this process."""
    who = resource.RUSAGE_CHILDREN if name == "assemble" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _unit(metric: str) -> str:
    return PER_LAYER_UNITS.get(metric.rsplit(".", 1)[-1], "s")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("search", "assemble", "lab"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ramsey3" / "__init__.py").is_file():
        print(f"error: no ramsey3 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import oracle

    started = time.perf_counter()
    problem = oracle.self_test(args.seed)
    if problem is not None:
        print(f"error: checker self-test failed: {problem}", file=sys.stderr)
        return 1
    wl = _workload(args.workload)
    # turn SIGTERM into SystemExit, so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, wl, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, wl, work, started: float) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx, inputs = wl.setup(pass_rng(args.workload, args.seed, 0), work)
        setups.append(time.perf_counter() - t0)

    # A fixed number of passes, as many as fit in the run at the nominal
    # pass length, so that every run of a workload does the same work.
    passes_wanted = max(1, int(args.seconds // wl.PASS_S))
    passes: list[Pass] = []
    tracer = None
    while True:
        index = len(passes)
        if index:
            inputs = wl.make_inputs(ctx, pass_rng(args.workload, args.seed, index))
        if args.trace and index == 1:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        p = Pass(tracer)
        try:
            wl.run_pass(p, ctx, inputs)
        finally:
            if tracer:
                tracer.uninstall()
        passes.append(p)
        if len(passes) == (2 if args.trace else passes_wanted):
            break
        if time.perf_counter() - started >= WALL_LIMIT_S:
            break

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.n_failed for p in passes)
    wrong = {k: v for p in passes for k, v in p.wrong.items()}
    run_s = [p.timed for p in passes]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  trace {args.trace}")
    for i, p in enumerate(passes):
        print(f"  pass {i}: run_s {p.timed:.4f}  ok {p.attempted - p.n_failed - p.n_wrong}/{p.attempted}")
    for name, why in passes[-1].failed.items():
        print(f"  failed: {name}: {why}")
    for name, why in wrong.items():
        print(f"  WRONG: {name}: {why}", file=sys.stderr)
        print(f"  wrong: {name}: {why}")
    frontier = {k: v for k, v in passes[-1].extra.items() if not k.startswith("cli.")}
    for name, value in frontier.items():
        print(f"  {name} {value} count")

    if args.trace:
        import spans

        metrics = spans.layer_metrics(tracer)
        metrics["colorengine.free_n_max"] = passes[1].extra.get("free_n_max", 0)
        metrics["codegree.forced_t_max"] = passes[1].extra.get("forced_t_max", 0)
        metrics["cli.bytes_in"] = passes[1].extra.get("cli.bytes_in", 0)
        metrics["cli.bytes_out"] = passes[1].extra.get("cli.bytes_out", 0)
        metrics["trace.overhead_s"] = passes[1].timed - passes[0].timed
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path, started)
        print(f"  spans: {len(tracer.name)} written to {path.relative_to(OUT.parent)}")
        print(f"  tracing overhead: traced run_s {passes[1].timed:.4f} - untraced {passes[0].timed:.4f}"
              f" = {metrics['trace.overhead_s']:.4f} s")
        out = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
    else:
        ok = [p.attempted - p.n_failed - p.n_wrong for p in passes]
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(run_s),
            "results_per_s": statistics.median(n / t for n, t in zip(ok, run_s)),
            "peak_rss_mib": _peak_rss_mib(args.workload),
        }
        out = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    for name, m in out.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
