#!/usr/bin/env python3
"""Compare benchmark runs: ``python3 bench/compare.py BASE.json [...] -- HEAD.json [...]``.

With exactly two files no ``--`` is needed.  Each side may be several run
files of one commit; the medians are compared.  One row per (workload,
end-to-end metric): base, head, head/base, the bound from ``BENCHMARK.json``
and a verdict — ``regressed`` when head is worse than base by more than the
bound, ``improved`` when it is better by more than the bound, ``unresolved``
when neither but the spread of the supplied runs (quartile distance over
median) exceeds the bound, unless every head run beats every base run, and
``unchanged`` otherwise.  Exit status 1 on any ``regressed`` row or any
increase in failed operations.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bounds() -> dict[str, tuple[str, float]]:
    """``metric -> (better, bound)`` from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}


def load(paths: list[str]) -> tuple[dict, dict]:
    """``(values[workload][metric] -> list, failed[workload] -> list of shares)``
    over the untraced records of the given run files."""
    values: dict = defaultdict(lambda: defaultdict(list))
    failed: dict = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for record in doc.get("records", [doc]):
            if record["traced"]:
                continue
            for name, value in record["metrics"].items():
                values[record["workload"]][name].append(value)
            failed[record["workload"]].append(record["failed"] / max(1, record["attempted"]))
    return values, failed


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)``; worsening is the share of base's median by
    which head's median is worse (negative when better)."""
    b, h = statistics.median(base), statistics.median(head)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (h - b) / b if b else 0.0
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    if max(spread(base), spread(head)) > bound:
        beats = max(head) < min(base) if better == "lower" else min(head) > max(base)
        return ("improved" if beats else "unresolved"), worse
    return "unchanged", worse


def main(argv: list[str]) -> int:
    if "--" in argv:
        cut = argv.index("--")
        base_paths, head_paths = argv[:cut], argv[cut + 1 :]
    elif len(argv) == 2:
        base_paths, head_paths = argv[:1], argv[1:]
    else:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, base_failed = load(base_paths)
    head, head_failed = load(head_paths)
    limits = bounds()
    status = 0
    header = f"{'workload':20s} {'metric':12s} {'base':>12s} {'head':>12s} {'head/base':>9s} "
    print(header + f"{'bound':>6s} {'spread':>7s}  verdict")
    for workload in base:
        if workload not in head:
            continue
        for name, (better, bound) in limits.items():
            b, h = base[workload].get(name), head[workload].get(name)
            if not b or not h:
                continue
            word, _worse = verdict(b, h, better, bound)
            mb, mh = statistics.median(b), statistics.median(h)
            wide = f"{max(spread(b), spread(h)):7.1%}" if len(b) > 1 or len(h) > 1 else "    n/a"
            print(
                f"{workload:20s} {name:12s} {mb:12.5g} {mh:12.5g} {mh / mb if mb else 0:9.3f} "
                f"{bound:6.0%} {wide}  {word}"
            )
            if word == "regressed":
                status = 1
        fb, fh = statistics.median(base_failed[workload]), statistics.median(head_failed[workload])
        if fh > fb:
            print(f"{workload:20s} failed_share {fb:12.5g} {fh:12.5g}  regressed (any increase)")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
