"""MC103 — stream purity.

The deterministic event stream is the root of every replay guarantee:
``EventStream.event_at(index)`` must be a pure function of
``(config.seed, index)``.  This pass takes the call-graph closure of
``event_at`` and flags, in any reachable function:

* stores to ``self`` (plain, augmented, or through a subscript) —
  the stream may not keep a cursor;
* wall-clock reads (``time.time``/``perf_counter``/``monotonic``/
  ``datetime.now``...);
* unseeded randomness — any stdlib ``random.*`` call, and the legacy
  ``np.random.*`` global-state samplers (``default_rng``/``Generator``/
  ``SeedSequence``/``PCG64`` are the sanctioned seeded constructors);
* telemetry emissions (they read and mutate the process-global sink);
* loads of module globals that are rebound via a ``global`` statement
  anywhere in their defining module (mutable-global reads).

Additionally, any function named in ``cfg.stream_forbidden`` that shows
up in the closure is itself a finding: the service-mode batching and
flush machinery (``ServiceSession._flush``/``_apply``,
``BatchTick.apply``) reads session state by design, so the pure sampler
reaching it would couple event *generation* to event *application*
order — exactly the coupling replay determinism forbids.
"""

from __future__ import annotations

import ast
import pathlib

from ..config import AnalysisConfig
from ..program import FunctionId, Program
from ...lintshared import Finding

CODE = "MC103"
DESCRIPTION = (
    "the event-stream sampler reads state not derived from (seed, index): "
    "clocks, mutable globals, unseeded randomness, or self-mutation"
)

#: telemetry emission methods (each records into the process-global sink)
_EMISSION_METHODS = frozenset({"inc", "set_gauge", "observe", "span", "event"})

_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "process_time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
}

_NP_UNSEEDED = {
    "random",
    "rand",
    "randn",
    "randint",
    "random_sample",
    "choice",
    "shuffle",
    "permutation",
    "seed",
    "standard_normal",
    "uniform",
    "normal",
    "poisson",
}


def _entry(program: Program, cfg: AnalysisConfig) -> FunctionId | None:
    fid = f"{cfg.stream_module}:{cfg.stream_class}.{cfg.stream_method}"
    return fid if program.function_node(fid) is not None else None


def _dotted_receiver(node: ast.Attribute) -> str | None:
    if isinstance(node.value, ast.Name):
        return node.value.id
    if isinstance(node.value, ast.Attribute) and isinstance(
        node.value.value, ast.Name
    ):
        # np.random.<fn> — report the inner attribute as receiver
        return f"{node.value.value.id}.{node.value.attr}"
    return None


def _check_body(
    program: Program, root: pathlib.Path, fid: FunctionId
) -> list[Finding]:
    located = program.function_node(fid)
    if located is None:
        return []
    info, _cls, fn = located
    path = program.rel_path(info, root)
    fname = fid.partition(":")[2]
    findings: list[Finding] = []

    def flag(node: ast.AST, msg: str) -> None:
        findings.append(
            Finding(
                path=path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=CODE,
                message=f"{msg} in stream-reachable {fname}()",
            )
        )

    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                list(node.targets)
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for t in targets:
                base = t.value if isinstance(t, ast.Subscript) else t
                if (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                ):
                    flag(t, f"store to self.{base.attr} (stream must be cursor-free)")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            recv = _dotted_receiver(node.func)
            attr = node.func.attr
            if recv is not None and (recv, attr) in _CLOCK_CALLS:
                flag(node, f"wall-clock read {recv}.{attr}()")
            elif recv == "random":
                flag(node, f"unseeded stdlib randomness random.{attr}()")
            elif recv in {"np.random", "numpy.random"} and attr in _NP_UNSEEDED:
                flag(node, f"global-state numpy randomness {recv}.{attr}()")
            elif attr in _EMISSION_METHODS and recv in {"tm", "telemetry"}:
                flag(node, f"telemetry emission {recv}.{attr}()")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in info.global_decls:
                flag(node, f"read of mutable module global '{node.id}'")
        elif isinstance(node, ast.Global):
            flag(node, f"'global {', '.join(node.names)}' statement")
    return findings


def run(
    program: Program, cfg: AnalysisConfig, root: pathlib.Path
) -> list[Finding]:
    entry = _entry(program, cfg)
    if entry is None:
        info = program.modules.get(cfg.stream_module)
        path = program.rel_path(info, root) if info else cfg.stream_module
        return [
            Finding(
                path=path,
                line=1,
                col=0,
                code=CODE,
                message=(
                    f"stream entry point {cfg.stream_class}."
                    f"{cfg.stream_method} not found; cannot prove purity"
                ),
            )
        ]
    findings: list[Finding] = []
    closure = program.reachable_from([entry])
    forbidden = set(cfg.stream_forbidden) & set(closure)
    for fid in sorted(forbidden):
        located = program.function_node(fid)
        if located is None:  # pragma: no cover - closure members resolve
            continue
        info, _cls, fn = located
        findings.append(
            Finding(
                path=program.rel_path(info, root),
                line=getattr(fn, "lineno", 1),
                col=getattr(fn, "col_offset", 0),
                code=CODE,
                message=(
                    f"batch-application helper {fid.partition(':')[2]}() is "
                    f"reachable from {cfg.stream_class}.{cfg.stream_method} "
                    "(event generation must not depend on application order)"
                ),
            )
        )
    for fid in sorted(closure):
        findings.extend(_check_body(program, root, fid))
    return findings
