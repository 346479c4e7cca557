#!/usr/bin/env python3
"""Run the benchmark: ``python3 bench/run.py [--workload W ...] [options]``.

With exactly one ``--workload`` the run happens in this process and the last
line of standard output is the result object the benchmark contract asks for
(``--trace 0``: the end-to-end metrics, ``--trace 1``: the per-layer metrics).
With none or several, each workload runs in a fresh subprocess of this same
script (so peak RSS and the program's memo tables are per workload), the
metrics are printed by name with their units, and the records go to
``bench/out/run-<sha>-<n>.json``.  ``--traced`` adds a traced pass per
workload; ``--fixed`` runs each workload's own round count instead of
``--seconds``; ``--selfcheck`` runs the whole set twice and compares the two.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"bench/run.py: no program to measure: {ROOT}/src/repro is missing")
# import the program from this checkout, and bench as a package (never as
# loose modules: bench/trace.py must not shadow the standard library's trace)
sys.path[0] = ROOT
sys.path.insert(0, os.path.join(ROOT, "src"))

from bench import compare  # noqa: E402
from bench.harness import OUT_DIR, run_workload  # noqa: E402
from bench.workloads import END_TO_END, PER_LAYER, registry  # noqa: E402

DEFAULT_SEED = 2014


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance() -> dict:
    """Where, on what and from when a record was measured: call it before
    the work, so that ``started_utc`` is the start and ``git_dirty`` is the
    tree as it was found."""
    import numpy
    import scipy

    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": platform.node(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def print_metrics(record: dict) -> None:
    """Every metric of one record by name, with its unit."""
    table = PER_LAYER if record["traced"] else END_TO_END
    kind = "traced" if record["traced"] else "untraced"
    print(
        f"== {record['workload']} ({kind}, seed {record['seed']}): "
        f"{record['units']} {record['unit'].split('/')[0]} in {record['wall_s']:.2f} s, "
        f"{record['rounds']} rounds, {record['n_samples']} samples, "
        f"failed {record['failed']}/{record['attempted']}, digest {record['output_digest']}"
    )
    for name, (unit, _better) in table.items():
        value = record["metrics"][name]
        shown = unit if name != "units_per_s" else record["unit"]
        print(f"   {name:32s} {value:>16.6g} {shown}")
    for line in record["failures"]:
        print(f"   FAILED: {line.strip().splitlines()[-1]}")


def contract_line(record: dict) -> str:
    """The one JSON object the benchmark contract reads from the last line."""
    table = PER_LAYER if record["traced"] else END_TO_END
    metrics = {
        name: {"value": record["metrics"][name], "unit": unit}
        for name, (unit, _better) in table.items()
    }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": max(1, record["attempted"]),
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def stop_resource_tracker() -> None:
    """Leave no process behind, on any way out of a run.

    The pool probe's shared-memory export makes multiprocessing start its
    resource tracker, which otherwise outlives this process by some
    milliseconds (the probe itself joins its workers and unlinks the segment).
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_single(args: argparse.Namespace, name: str) -> int:
    """One workload, in this process."""
    workloads = registry()
    if name not in workloads:
        sys.exit(f"unknown workload {name!r}; choose from {', '.join(workloads)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    started = provenance()
    record = run_workload(
        workloads[name],
        seed=args.seed,
        seconds=args.seconds,
        fixed=args.fixed,
        trace=bool(args.trace),
        smoke=args.smoke,
        trace_path=os.path.join(OUT_DIR, f"trace-{name}.jsonl") if args.trace else None,
    )
    record["provenance"] = started
    print_metrics(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(contract_line(record))
    return 0


def _child(args: argparse.Namespace, name: str, trace: int, tag: str) -> dict:
    """Run one workload in a fresh subprocess; return its record."""
    part = os.path.join(OUT_DIR, f".part-{os.getpid()}-{tag}.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += ["--trace", str(trace), "--out", part]
    if args.fixed:
        cmd.append("--fixed")
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.exit(f"{name}: exit {done.returncode}\n{done.stderr[-2000:]}")
        with open(part, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        if os.path.exists(part):
            os.remove(part)


def run_set(args: argparse.Namespace, names: list[str], out: str | None = None) -> str:
    """Every named workload in its own subprocess; returns the run file."""
    os.makedirs(OUT_DIR, exist_ok=True)
    started = provenance()
    records = []
    for name in names:
        for trace in (0, 1) if args.traced else (0,):
            record = _child(args, name, trace, f"{name}-{trace}")
            print_metrics(record)
            records.append(record)
    run = {"provenance": started, "seed": args.seed, "seconds": args.seconds,
           "fixed": args.fixed, "smoke": args.smoke, "records": records}
    if out is None:
        sha = (run["provenance"]["git_sha"] or "nogit")[:10]
        n = 0
        while os.path.exists(out := os.path.join(OUT_DIR, f"run-{sha}-{n}.json")):
            n += 1
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(run, fh, indent=1)
    print(f"wrote {os.path.relpath(out, ROOT)}")
    return out


#: counts that must repeat exactly between two runs of one commit and seed.
EXACT_COUNTS = (
    "bgp.dests_converged",
    "flowsim.maxmin_iterations",
    "verify.dests_verified",
    "service.flaps",
)


def selfcheck(args: argparse.Namespace, names: list[str]) -> int:
    """Two full sets of the same commit must agree with each other."""
    args.traced = True
    args.fixed = True  # exact counts repeat only over fixed work
    first = run_set(args, names)
    second = run_set(args, names)
    status = compare.main([first, second])
    with open(first, encoding="utf-8") as fh:
        a = json.load(fh)["records"]
    with open(second, encoding="utf-8") as fh:
        b = json.load(fh)["records"]
    for ra, rb in zip(a, b):
        where = f"{ra['workload']}{' traced' if ra['traced'] else ''}"
        if ra["output_digest"] != rb["output_digest"]:
            print(f"MISMATCH {where}: digest {ra['output_digest']} != {rb['output_digest']}")
            status = 1
        if ra["traced"]:
            for name in EXACT_COUNTS:
                va, vb = ra["metrics"][name], rb["metrics"][name]
                if va != vb:
                    print(f"MISMATCH {where}: {name} {va} != {vb}")
                    status = 1
    print("selfcheck:", "FAILED" if status else "ok — digests and exact counts identical")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="name (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="seconds one run measures")
    parser.add_argument("--fixed", action="store_true", help="run each workload's own round count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="add a traced pass per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for bench/tests")
    parser.add_argument("--out", help="write the record(s) to this file")
    parser.add_argument("--selfcheck", action="store_true", help="run the set twice and compare")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_benchmark_json()["run_seconds"])
    names = args.workload or list(registry())
    try:
        if args.selfcheck:
            return selfcheck(args, names)
        if len(names) == 1 and not args.traced:
            return run_single(args, names[0])
        run_set(args, names, args.out)
        return 0
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
