"""MC102 — fork-boundary determinism.

Pool workers (forked or spawned — one standing ``ProcessPoolExecutor``
over the shared-memory CSR) communicate results and telemetry back to
the parent exclusively through value returns merged in submission
order.  Two families of checks keep that process boundary deterministic:

**Merge-algebra completeness.**  Every field of the telemetry snapshot
dataclass must be folded by the merge function (``Telemetry.absorb``)
or declared implicitly-derived in the module-level
``MERGE_DERIVED_FIELDS`` tuple.  A field that is neither is silently
dropped at the process boundary — exactly the regression deleting one
``absorb`` entry would introduce.

**Worker-side hygiene**, over every function reachable (via the call
graph) from a worker entry point — the callable handed to ordered
dispatch (``pool.map``; ``imap`` is recognized too) *and* any
``initializer=`` callable given to a pool constructor
(``ProcessPoolExecutor`` or ``multiprocessing.Pool``), which runs in
every worker before its first task and is therefore just as worker-side
as the task body:

* telemetry emissions whose snapshot field is *not* merged (an ``inc``
  is fine because ``counters`` merges; a ``span`` in a worker is a bug
  the moment ``spans`` stops merging);
* ``global`` statements — a worker's globals are its own copy (forked)
  or a fresh import (spawned), so rebinding them there is dead state at
  best (the telemetry module itself is exempt: its ``activate`` sink
  swap is the sanctioned mechanism workers use to install a local sink;
  globals named in ``AnalysisConfig.worker_state_globals`` are likewise
  exempt, the declared one-way worker-state installs a pool initializer
  performs, such as the shared-memory CSR attachment);
* iteration over set literals / ``set()`` results, whose order can
  differ across processes;
* nondeterministic pool dispatch (``imap_unordered``, ``map_async``,
  ``apply_async``) anywhere in the parallel module.
"""

from __future__ import annotations

import ast
import pathlib

from ..config import AnalysisConfig
from ..program import FunctionId, Program
from ...lintshared import Finding

CODE = "MC102"
DESCRIPTION = (
    "telemetry or state crossing the worker fork boundary is not covered "
    "by the deterministic snapshot-merge algebra"
)

#: emission method -> the snapshot field its data lands in
EMISSION_FIELDS = {
    "inc": "counters",
    "set_gauge": "gauges",
    "observe": "histograms",
    "span": "spans",
    "event": "events",
}

_ORDERED_DISPATCH = {"imap", "map"}
_UNORDERED_DISPATCH = {"imap_unordered", "map_async", "apply_async", "starmap_async"}


def _snapshot_fields(
    program: Program, cfg: AnalysisConfig
) -> tuple[dict[str, int], str] | None:
    """Snapshot dataclass field -> line, plus the module's rel path."""
    info = program.modules.get(cfg.telemetry_module)
    if info is None:
        return None
    cls = info.classes.get(cfg.snapshot_class)
    if cls is None:
        return None
    fields: dict[str, int] = {}
    for stmt in cls.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            fields[stmt.target.id] = stmt.lineno
    return fields, cfg.telemetry_module


def _merged_fields(program: Program, cfg: AnalysisConfig) -> set[str]:
    """Snapshot fields the merge function reads, plus declared-derived."""
    info = program.modules.get(cfg.telemetry_module)
    if info is None:
        return set()
    merged: set[str] = set()
    for cls in info.classes.values():
        fn = cls.methods.get(cfg.merge_function)
        if fn is None:
            continue
        # only reads *of the snapshot parameter* count as merging — the
        # sink's own fields (self.spans etc.) must not mask a deleted
        # snap.<field> fold.
        params = [a.arg for a in fn.args.args if a.arg != "self"]
        snap_param = params[0] if params else None
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == snap_param
            ):
                merged.add(node.attr)
    for stmt in info.tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == cfg.merge_derived_decl
            for t in targets
        ):
            continue
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for elt in value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    merged.add(elt.value)
    return merged


def _worker_entries(program: Program, cfg: AnalysisConfig) -> list[FunctionId]:
    """Callables that run inside workers, per the parallel module's AST.

    Two ways a function crosses into a worker: as the first argument of
    ordered pool dispatch (``.imap``/``.map``), or as the
    ``initializer=`` keyword of a pool constructor — the latter runs in
    every worker before its first task (the shared-memory attach path),
    so its reachable closure needs the same hygiene checks.
    """
    info = program.modules.get(cfg.parallel_module)
    if info is None:
        return []
    entries: list[FunctionId] = []

    def add(candidate: ast.expr) -> None:
        if isinstance(candidate, ast.Name):
            resolved = program.resolve_symbol(info.name, candidate.id)
            if resolved is not None and resolved[0] == "function":
                entries.append(f"{resolved[1]}:{resolved[2]}")

    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _ORDERED_DISPATCH
            and node.args
        ):
            add(node.args[0])
        for kw in node.keywords:
            if kw.arg == "initializer":
                add(kw.value)
    return entries


def _check_worker_body(
    program: Program,
    cfg: AnalysisConfig,
    root: pathlib.Path,
    fid: FunctionId,
    merged: set[str],
) -> list[Finding]:
    located = program.function_node(fid)
    if located is None:
        return []
    info, _cls, fn = located
    path = program.rel_path(info, root)
    findings: list[Finding] = []
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Global)
            and info.name != cfg.telemetry_module
            and not all(n in cfg.worker_state_globals for n in node.names)
        ):
            findings.append(
                Finding(
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    code=CODE,
                    message=(
                        f"'global {', '.join(node.names)}' in worker-reachable "
                        f"{fid.partition(':')[2]}(): forked children cannot "
                        "publish globals back to the parent"
                    ),
                )
            )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            kind = node.func.attr
            field = EMISSION_FIELDS.get(kind)
            if field is not None and field not in merged:
                findings.append(
                    Finding(
                        path=path,
                        line=node.lineno,
                        col=node.col_offset,
                        code=CODE,
                        message=(
                            f"telemetry {kind}() in worker-reachable "
                            f"{fid.partition(':')[2]}() lands in snapshot "
                            f"field '{field}', which the merge algebra does "
                            "not fold"
                        ),
                    )
                )
        elif isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            if isinstance(it, ast.Set) or (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id in {"set", "frozenset"}
            ):
                findings.append(
                    Finding(
                        path=path,
                        line=it.lineno,
                        col=it.col_offset,
                        code=CODE,
                        message=(
                            "iteration over a set in worker-reachable "
                            f"{fid.partition(':')[2]}(): ordering is not "
                            "deterministic across processes"
                        ),
                    )
                )
    return findings


def run(
    program: Program, cfg: AnalysisConfig, root: pathlib.Path
) -> list[Finding]:
    findings: list[Finding] = []
    merged = _merged_fields(program, cfg)
    snap = _snapshot_fields(program, cfg)
    if snap is not None:
        fields, mod_name = snap
        info = program.modules[mod_name]
        path = program.rel_path(info, root)
        for field, line in sorted(fields.items(), key=lambda kv: kv[1]):
            if field not in merged:
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        col=0,
                        code=CODE,
                        message=(
                            f"snapshot field '{field}' is not folded by "
                            f"{cfg.merge_function}() and not declared in "
                            f"{cfg.merge_derived_decl}: it is dropped at the "
                            "fork boundary"
                        ),
                    )
                )
    par = program.modules.get(cfg.parallel_module)
    if par is not None:
        par_path = program.rel_path(par, root)
        for node in ast.walk(par.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _UNORDERED_DISPATCH
            ):
                findings.append(
                    Finding(
                        path=par_path,
                        line=node.lineno,
                        col=node.col_offset,
                        code=CODE,
                        message=(
                            f"nondeterministic pool dispatch "
                            f"'{node.func.attr}': worker results must merge "
                            "in submission order (use imap/map)"
                        ),
                    )
                )
    for fid in sorted(program.reachable_from(_worker_entries(program, cfg))):
        findings.extend(_check_worker_body(program, cfg, root, fid, merged))
    return findings
