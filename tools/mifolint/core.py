"""The lint rules and the single-pass AST visitor that applies them.

Five rules, each encoding a repo invariant that generic linters cannot
express because it depends on *this* codebase's semantics:

``MF001`` — **no unseeded randomness in library code.**  Every result in
``src/repro`` must be reproducible from explicit seeds.  Module-level
``random.*`` functions draw from interpreter-global state;
``numpy.random.*`` legacy functions draw from numpy-global state; and a
bare ``default_rng()`` seeds from the OS.  All are flagged; constructing
a seeded generator (``random.Random(seed)``, ``default_rng(seed)``) is
the approved pattern.  Applies to library paths only — tests may use
whatever their fixtures seed.

``MF002`` — **no iteration over unordered sets in determinism-critical
hot paths** (``repro.bgp``, ``repro.mifo``, ``repro.topology``,
``repro.flowsim``).  Set iteration order depends on insertion history
and hash seeding; routing code that iterates a set can silently break
the determinism the byte-identical cross-backend guarantee rests on, and
in the fluid solver the iteration order decides float accumulation order
— the incremental-vs-full bitwise contract.  Iterate ``sorted(the_set)``
instead.  (Dict/dict-view iteration is fine: insertion-ordered by
construction.)

``MF003`` — **no mutation of a frozen ASGraph, and no store into
another object's private state.**  Outside ``repro.topology`` every
``ASGraph`` is frozen by contract, so calling its mutators is at best a
latent ``TopologyError`` and at worst state corruption.  And a private
attribute belongs to the class that assigns it: a store into
``obj._name`` or ``obj._name[...]`` where ``obj`` is not ``self``/``cls``
bypasses the owner's invariants — the graph's freeze, the solver's slab
bookkeeping, the engine and session state a checkpoint captures.  Two
places may write from outside: a file whose own class assigns
``self._name`` (clones built by ``rebind``/``rebase``), and
``repro.service``, the checkpoint restore path.  The CSR arrays need no
lint: they are read-only numpy arrays in frozen dataclasses, so a write
raises at run time.

``MF004`` — **no ad-hoc clocks in library code.**  Every timing in
``src/repro`` must flow through ``repro.telemetry`` (spans for phase
timing, :class:`~repro.telemetry.Stopwatch` for ad-hoc elapsed time) so
the zero-overhead guarantee is auditable and all measurements share one
clock discipline.  Direct ``time.time()`` / ``time.perf_counter()`` /
``time.monotonic()`` (and their ``_ns`` / ``process_time`` variants)
calls are flagged everywhere in the library except inside
``repro.telemetry`` itself.  ``time.sleep()`` is not a clock read and is
not flagged.

``MF005`` — **every public class and function in library code carries a
docstring.**  ``src/repro`` is grown across many sessions by authors with
no shared memory; the docstring is the only durable statement of intent a
public surface gets.  Names with a leading underscore (which covers
dunders), ``@overload`` stubs, property ``setter``/``deleter``/``getter``
companions, ellipsis/``pass`` stub bodies (Protocol members, abstract
declarations), and functions nested inside other functions are exempt.

Suppression: append ``# mifolint: disable=MF00X`` (or ``# noqa: MF00X``)
to the offending line; free text (a reason) may follow the codes.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
from collections.abc import Iterable, Sequence

__all__ = [
    "PathPolicy",
    "RULES",
    "Violation",
    "lint_file",
    "lint_paths",
    "lint_source",
]

#: rule code -> one-line description (also shown by ``--list-rules``).
RULES: dict[str, str] = {
    "MF001": "unseeded random/numpy.random in library code breaks reproducibility",
    "MF002": "iteration over an unordered set in a determinism-critical hot path",
    "MF003": "mutation of a frozen ASGraph, or a store into another object's "
    "private attribute",
    "MF004": "direct time.time()/perf_counter() in library code; use repro.telemetry",
    "MF005": "public class/function in library code without a docstring",
}

#: clock-reading functions of the stdlib ``time`` module (MF004).
TIMER_FUNCS: frozenset[str] = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: routing hot paths for MF002 (module path fragments, POSIX style).
#: ``repro/flowsim`` joined when the incremental solver landed: flow and
#: link iteration order there decides float accumulation order, which the
#: byte-identical incremental-vs-full solver contract depends on.
#: ``repro/scenario`` and ``repro/service`` joined with the streaming
#: service: the per-event loop and the checkpoint serializer must emit
#: deterministic orderings or restore-replay byte-identity breaks.
#: ``repro/measure`` joined with the measurement subsystem: detectors
#: are pure functions of their pushed series and the RTT observable is
#: seeded, so any unordered iteration there breaks the cross-backend
#: bitwise-identity contract on traces and checkpoints.
HOT_PATHS: tuple[str, ...] = (
    "repro/bgp/",
    "repro/mifo/",
    "repro/topology/",
    "repro/flowsim/",
    "repro/scenario/",
    "repro/service/",
    "repro/measure/",
)

#: ASGraph mutator methods (MF003a) — only repro.topology may call these.
GRAPH_MUTATORS: frozenset[str] = frozenset(
    {"add_as", "add_p2c", "add_peering", "_add_link"}
)

#: one regex accepts both suppression spellings; free text (a reason) may
#: follow the code list and is ignored by the match.
DISABLE_RE = re.compile(r"#\s*(?:mifolint:\s*disable=|noqa:\s*)([A-Z0-9, ]+)")


@dataclasses.dataclass(frozen=True, slots=True)
class Violation:
    """One rule violation at a concrete source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _suppressed(source_lines: Sequence[str], line: int, code: str) -> bool:
    """Whether ``code`` is suppressed on 1-indexed ``line`` of the file."""
    if not 1 <= line <= len(source_lines):
        return False
    m = DISABLE_RE.search(source_lines[line - 1])
    return bool(m) and code in {c.strip() for c in m.group(1).split(",")}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _owned_privates(tree: ast.Module) -> frozenset[str]:
    """Private names some class of the module assigns as ``self._name``."""
    owned: set[str] = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and _is_private(node.attr)
            ):
                owned.add(node.attr)
    return frozenset(owned)


@dataclasses.dataclass(frozen=True, slots=True)
class PathPolicy:
    """Which rule families apply to a file, decided from its path.

    ``library`` gates MF001/MF003a/MF004 (reproducibility + frozen-state
    + clock discipline), ``hot`` gates MF002 (set-iteration order), and
    ``docstrings`` gates MF005 separately so the repo's own tooling
    (``tools/``, ``benchmarks/``) can be held to the determinism rules
    without requiring a docstring on every helper.  The ``allow_*``
    flags name the package that legitimately owns each protected
    mechanism.  MF003 store checks apply everywhere regardless.
    """

    library: bool
    hot: bool
    docstrings: bool
    allow_mutators: bool = False
    allow_timers: bool = False
    allow_service: bool = False


class _Visitor(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        source_lines: Sequence[str],
        *,
        library: bool,
        hot: bool,
        docstrings: bool,
        allow_mutators: bool = False,
        allow_timers: bool = False,
        allow_service: bool = False,
        owned: frozenset[str] = frozenset(),
    ) -> None:
        self.path = path
        self.source_lines = source_lines
        self.library = library  #: MF001 + MF003a + MF004 apply
        self.hot = hot  #: routing hot path — MF002 applies
        self.docstrings = docstrings  #: MF005 applies
        #: repro.topology builds graphs, so mutator calls are legitimate there
        self.allow_mutators = allow_mutators
        #: repro.telemetry owns the clocks, so raw time.* reads are fine there
        self.allow_timers = allow_timers
        #: repro.service owns checkpoint restore, so its state stores are fine
        self.allow_service = allow_service
        #: private names a class of this file assigns on ``self`` (MF003)
        self.owned = owned
        self.violations: list[Violation] = []
        #: names bound to the stdlib ``random`` module
        self.random_aliases: set[str] = set()
        #: names bound to the ``numpy`` module
        self.numpy_aliases: set[str] = set()
        #: names bound to ``numpy.random`` itself
        self.nprandom_aliases: set[str] = set()
        #: name -> member imported from stdlib ``random``
        self.random_members: dict[str, str] = {}
        #: name -> member imported from ``numpy.random``
        self.nprandom_members: dict[str, str] = {}
        #: names bound to the stdlib ``time`` module
        self.time_aliases: set[str] = set()
        #: name -> member imported from stdlib ``time``
        self.time_members: dict[str, str] = {}
        #: current function nesting depth (MF005 skips nested functions)
        self._func_depth = 0

    # ------------------------------------------------------------------
    # import tracking (MF001)
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_aliases.add(bound)
            elif alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name in ("numpy", "numpy.random"):
                # ``import numpy.random as npr`` binds numpy.random itself.
                if alias.asname and alias.name == "numpy.random":
                    self.nprandom_aliases.add(bound)
                else:
                    self.numpy_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                self.random_members[alias.asname or alias.name] = alias.name
        elif node.module == "time":
            for alias in node.names:
                self.time_members[alias.asname or alias.name] = alias.name
        elif node.module == "numpy.random":
            for alias in node.names:
                self.nprandom_members[alias.asname or alias.name] = alias.name
        elif node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.nprandom_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # calls: MF001 + MF003a
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self.library:
            self._check_random_call(node)
            self._check_mutator_call(node)
            self._check_timer_call(node)
        self.generic_visit(node)

    def _check_timer_call(self, node: ast.Call) -> None:
        if self.allow_timers:
            return
        func = node.func
        # time.<fn>(...) on a stdlib-time alias
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.time_aliases
            and func.attr in TIMER_FUNCS
        ):
            self._add(
                node, "MF004",
                f"direct time.{func.attr}() call; use a repro.telemetry span "
                f"(phase timing) or telemetry.Stopwatch (ad-hoc elapsed time)",
            )
            return
        # from time import <fn>; <fn>(...)
        if isinstance(func, ast.Name) and func.id in self.time_members:
            member = self.time_members[func.id]
            if member in TIMER_FUNCS:
                self._add(
                    node, "MF004",
                    f"direct time.{member}() call; use a repro.telemetry span "
                    f"(phase timing) or telemetry.Stopwatch (ad-hoc elapsed time)",
                )

    def _check_random_call(self, node: ast.Call) -> None:
        func = node.func
        seeded = bool(node.args or node.keywords)
        # random.<fn>(...) / rnd.<fn>(...) on a stdlib-random alias
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.random_aliases
        ):
            if func.attr == "Random" and seeded:
                return
            self._add(node, "MF001", f"call to random.{func.attr}() uses global or "
                      f"OS-seeded state; construct random.Random(seed) instead")
            return
        # from random import <fn>; <fn>(...)
        if isinstance(func, ast.Name) and func.id in self.random_members:
            member = self.random_members[func.id]
            if member == "Random" and seeded:
                return
            self._add(node, "MF001", f"call to random.{member}() uses global or "
                      f"OS-seeded state; construct random.Random(seed) instead")
            return
        # np.random.<fn>(...) / npr.<fn>(...)
        attr_chain = self._nprandom_attr(func)
        if attr_chain is not None:
            if attr_chain in ("default_rng", "Generator", "SeedSequence") and seeded:
                return
            self._add(node, "MF001", f"call to numpy.random.{attr_chain}() draws "
                      f"global or OS-seeded state; use default_rng(seed)")
            return
        # from numpy.random import default_rng; default_rng(...)
        if isinstance(func, ast.Name) and func.id in self.nprandom_members:
            member = self.nprandom_members[func.id]
            if member in ("default_rng", "Generator", "SeedSequence") and seeded:
                return
            self._add(node, "MF001", f"call to numpy.random.{member}() draws "
                      f"global or OS-seeded state; use default_rng(seed)")

    def _nprandom_attr(self, func: ast.expr) -> str | None:
        """``np.random.X`` or ``npr.X`` -> ``"X"``; anything else -> None."""
        if not isinstance(func, ast.Attribute):
            return None
        value = func.value
        if isinstance(value, ast.Name) and value.id in self.nprandom_aliases:
            return func.attr
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in self.numpy_aliases
        ):
            return func.attr
        return None

    def _check_mutator_call(self, node: ast.Call) -> None:
        if self.allow_mutators:
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in GRAPH_MUTATORS
            and not self._is_self_call(func)
        ):
            self._add(
                node, "MF003",
                f"call to ASGraph.{func.attr}() outside repro.topology — graphs "
                f"are frozen by contract once routing code sees them",
            )

    @staticmethod
    def _is_self_call(func: ast.Attribute) -> bool:
        return isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")

    # ------------------------------------------------------------------
    # iteration: MF002
    # ------------------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if self.hot:
            self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.expr) -> None:
        if self.hot:
            for gen in getattr(node, "generators", ()):
                self._check_set_iteration(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _check_set_iteration(self, it: ast.expr) -> None:
        if self._is_set_expr(it):
            self._add(
                it, "MF002",
                "iteration over an unordered set in a routing hot path; iterate "
                "sorted(...) (or an insertion-ordered dict) for determinism",
            )

    def _is_set_expr(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset")
        ):
            return True
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # ``a.keys() | b.keys()`` and friends produce sets; flag when
            # either side is set-ish or a dict-view call.
            return any(
                self._is_set_expr(side) or self._is_keys_call(side)
                for side in (expr.left, expr.right)
            )
        return False

    @staticmethod
    def _is_keys_call(expr: ast.expr) -> bool:
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "keys"
        )

    # ------------------------------------------------------------------
    # docstrings: MF005
    # ------------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if (
            self.docstrings
            and self._func_depth == 0
            and not node.name.startswith("_")
            and ast.get_docstring(node) is None
        ):
            self._add(
                node, "MF005",
                f"public class {node.name!r} has no docstring",
            )
        self.generic_visit(node)

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if (
            self.docstrings
            and self._func_depth == 0
            and not node.name.startswith("_")
            and ast.get_docstring(node) is None
            and not self._docstring_exempt(node)
        ):
            self._add(
                node, "MF005",
                f"public function {node.name!r} has no docstring",
            )
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    @staticmethod
    def _docstring_exempt(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        """Overload stubs, property companions, and stub bodies need no
        docstring of their own — the canonical definition carries it."""
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if isinstance(target, ast.Name) and target.id == "overload":
                return True
            if isinstance(target, ast.Attribute) and target.attr in (
                "overload",
                "setter",
                "deleter",
                "getter",
            ):
                return True
        body = node.body
        if len(body) == 1:
            only = body[0]
            if isinstance(only, ast.Pass):
                return True
            if (
                isinstance(only, ast.Expr)
                and isinstance(only.value, ast.Constant)
                and only.value.value is Ellipsis
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # stores: MF003b
    # ------------------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_store(target)
        self.generic_visit(node)

    def _check_store(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store(elt)
            return
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and _is_private(node.attr)
            and not self._is_self_call(node)
            and not self.allow_service
            and node.attr not in self.owned
        ):
            self._add(
                target, "MF003",
                f"store into .{node.attr} of another object — only the class "
                f"that assigns self.{node.attr} (or the repro.service restore "
                f"path) may write it",
            )

    # ------------------------------------------------------------------
    def _add(self, node: ast.expr | ast.stmt, code: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if _suppressed(self.source_lines, line, code):
            return
        self.violations.append(
            Violation(
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
            )
        )


def _classify(path: pathlib.Path) -> PathPolicy:
    """Decide which rule families apply to ``path``.

    ``src/`` library code gets everything; the repo's own tooling
    (``tools/``, ``benchmarks/``) is held to the determinism and clock
    rules (MF001/MF004 and the always-on MF003 stores) but not MF005
    docstrings and not the hot-path set-iteration rule; tests get only
    the always-on MF003 store checks.
    """
    posix = path.as_posix()
    library = "/src/" in f"/{posix}" or posix.startswith("src/")
    if library:
        return PathPolicy(
            library=True,
            hot=any(fragment in posix for fragment in HOT_PATHS),
            docstrings=True,
            allow_mutators="repro/topology/" in posix,
            allow_timers="repro/telemetry/" in posix,
            allow_service="repro/service/" in posix,
        )
    tooling = any(
        f"/{posix}".startswith(f"/{prefix}") or f"/{prefix}" in f"/{posix}"
        for prefix in ("tools/", "benchmarks/")
    )
    return PathPolicy(library=tooling, hot=False, docstrings=False)


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    library: bool = True,
    hot: bool = True,
    docstrings: bool | None = None,
    allow_mutators: bool = False,
    allow_timers: bool = False,
    allow_service: bool = False,
) -> list[Violation]:
    """Lint one source string (the unit-test entry point).

    ``docstrings`` defaults to ``library`` — src-style code must document
    its public surface unless told otherwise.
    """
    tree = ast.parse(source, filename=path)
    visitor = _Visitor(
        path,
        source.splitlines(),
        library=library,
        hot=hot,
        docstrings=library if docstrings is None else docstrings,
        allow_mutators=allow_mutators,
        allow_timers=allow_timers,
        allow_service=allow_service,
        owned=_owned_privates(tree),
    )
    visitor.visit(tree)
    return sorted(visitor.violations, key=lambda v: (v.line, v.col, v.code))


def lint_file(path: pathlib.Path) -> list[Violation]:
    policy = _classify(path)
    return lint_source(
        path.read_text(encoding="utf-8"),
        str(path),
        library=policy.library,
        hot=policy.hot,
        docstrings=policy.docstrings,
        allow_mutators=policy.allow_mutators,
        allow_timers=policy.allow_timers,
        allow_service=policy.allow_service,
    )


def lint_paths(
    paths: Iterable[str | pathlib.Path],
    *,
    select: frozenset[str] | None = None,
) -> list[Violation]:
    """Lint every ``.py`` file under the given files/directories."""
    files: list[pathlib.Path] = []
    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    violations: list[Violation] = []
    for f in files:
        found = lint_file(f)
        if select is not None:
            found = [v for v in found if v.code in select]
        violations.extend(found)
    return violations
