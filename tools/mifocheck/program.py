"""Whole-program model for mifocheck.

Parses every module of one package exactly once and exposes:

* a dotted-name **module table** (package ``__init__`` files are named
  by the package itself, e.g. ``repro.telemetry``);
* **import resolution** — alias chains are followed through re-exporting
  ``__init__`` modules so ``tm.active`` resolves to
  ``repro.telemetry.core.active`` even when ``tm`` aliases the package;
* a per-class **instance-attribute inventory**: every ``self._x``
  assignment site (plain, annotated, or augmented stores), with the
  first line it appears on;
* a conservative intra-package **call graph** over function ids of the
  form ``"module:qualname"`` (``"repro.service.stream:merge_effects"``,
  ``"repro.telemetry.core:Telemetry.snapshot"``).

The call graph resolves only what it can prove: direct names, ``self``
methods, locals assigned from resolved constructors, direct
``Cls(...).m()`` chains, and module-alias attribute calls.  Unresolvable
dynamic dispatch produces no edge — passes that need soundness in the
other direction (e.g. MC103 purity) pair the graph with their own
syntactic checks on the reachable bodies.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib

__all__ = ["ClassInfo", "FunctionId", "ModuleInfo", "Program"]

FunctionId = str  # "dotted.module:qualname"

_MAX_ALIAS_DEPTH = 8


@dataclasses.dataclass(slots=True)
class ClassInfo:
    """One class definition plus its instance-attribute inventory."""

    name: str
    module: str
    node: ast.ClassDef
    #: every method (properties included), by name
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef]
    #: names of ``@property``-decorated methods
    properties: set[str]
    #: instance attribute -> (line, col) of its first ``self.X = ...``
    attrs: dict[str, tuple[int, int]]
    #: ``DERIVABLE = {"attr": "reason"}`` class declaration, if present
    derivable: dict[str, str]
    derivable_line: int


@dataclasses.dataclass(slots=True)
class ModuleInfo:
    """One parsed module of the analyzed package."""

    name: str
    path: pathlib.Path
    source: str
    lines: list[str]
    tree: ast.Module
    #: local alias -> dotted target ("pkg.mod" or "pkg.mod.symbol")
    imports: dict[str, str]
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef]
    classes: dict[str, ClassInfo]
    #: names rebound via a ``global`` statement anywhere in the module
    global_decls: set[str]
    #: module-level simple assignment targets
    module_assigns: set[str]


def _is_property(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for dec in fn.decorator_list:
        if isinstance(dec, ast.Name) and dec.id == "property":
            return True
        if isinstance(dec, ast.Attribute) and dec.attr in {"property", "cached_property"}:
            return True
    return False


def _self_attr_stores(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[tuple[str, int, int]]:
    """``(attr, line, col)`` for every plain ``self.X`` store in ``fn``."""
    out: list[tuple[str, int, int]] = []
    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for t in targets:
            if (
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            ):
                out.append((t.attr, t.lineno, t.col_offset))
    return out


def _parse_derivable(cls: ast.ClassDef) -> tuple[dict[str, str], int]:
    """Read a class-level ``DERIVABLE = {"attr": "reason"}`` literal."""
    for stmt in cls.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        if not (isinstance(target, ast.Name) and target.id == "DERIVABLE"):
            continue
        entries: dict[str, str] = {}
        if isinstance(value, ast.Dict):
            for k, v in zip(value.keys, value.values):
                if isinstance(k, ast.Constant) and isinstance(k.value, str):
                    reason = v.value if isinstance(v, ast.Constant) and isinstance(v.value, str) else ""
                    entries[k.value] = reason
        return entries, stmt.lineno
    return {}, 0


def _build_class(name: str, module: str, node: ast.ClassDef) -> ClassInfo:
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    properties: set[str] = set()
    attrs: dict[str, tuple[int, int]] = {}
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[stmt.name] = stmt
            if _is_property(stmt):
                properties.add(stmt.name)
    for fn in methods.values():
        for attr, line, col in _self_attr_stores(fn):
            if attr not in attrs or (line, col) < attrs[attr]:
                attrs[attr] = (line, col)
    derivable, derivable_line = _parse_derivable(node)
    return ClassInfo(
        name=name,
        module=module,
        node=node,
        methods=methods,
        properties=properties,
        attrs=attrs,
        derivable=derivable,
        derivable_line=derivable_line,
    )


def _module_name_for(path: pathlib.Path, source_root: pathlib.Path) -> str:
    rel = path.relative_to(source_root)
    parts = list(rel.parts)
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _resolve_relative(
    module_name: str, target: str | None, level: int, is_package_init: bool
) -> str | None:
    """Absolute dotted base of a ``from``-import inside ``module_name``."""
    if level == 0:
        return target or ""
    parts = module_name.split(".")
    # level=1 in a plain module means "the containing package"; in a
    # package __init__ the module name *is* the package, so one fewer
    # component is stripped.
    strip = level if not is_package_init else level - 1
    if strip > len(parts):
        return None
    base_parts = parts[: len(parts) - strip] if strip else parts
    base = ".".join(base_parts)
    if target:
        base = f"{base}.{target}" if base else target
    return base


class Program:
    """The parsed package: module table, inventories, call graph."""

    def __init__(self, source_root: pathlib.Path, package: str) -> None:
        self.source_root = source_root
        self.package = package
        self.modules: dict[str, ModuleInfo] = {}
        self._load()
        self._edges: dict[FunctionId, set[FunctionId]] | None = None

    # -- loading -------------------------------------------------------

    def _load(self) -> None:
        pkg_dir = self.source_root / self.package.replace(".", "/")
        if not pkg_dir.is_dir():
            raise FileNotFoundError(f"package directory not found: {pkg_dir}")
        for path in sorted(pkg_dir.rglob("*.py")):
            name = _module_name_for(path, self.source_root)
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
            is_init = path.name == "__init__.py"
            imports: dict[str, str] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname:
                            imports[alias.asname] = alias.name
                        else:
                            imports[alias.name.split(".")[0]] = alias.name.split(".")[0]
                elif isinstance(node, ast.ImportFrom):
                    base = _resolve_relative(name, node.module, node.level, is_init)
                    if base is None:
                        continue
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        bound = alias.asname or alias.name
                        imports[bound] = f"{base}.{alias.name}" if base else alias.name
            functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
            classes: dict[str, ClassInfo] = {}
            for stmt in tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions[stmt.name] = stmt
                elif isinstance(stmt, ast.ClassDef):
                    classes[stmt.name] = _build_class(stmt.name, name, stmt)
            global_decls = {
                n
                for node in ast.walk(tree)
                if isinstance(node, ast.Global)
                for n in node.names
            }
            module_assigns: set[str] = set()
            for stmt in tree.body:
                if isinstance(stmt, ast.Assign):
                    for t in stmt.targets:
                        if isinstance(t, ast.Name):
                            module_assigns.add(t.id)
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    module_assigns.add(stmt.target.id)
            self.modules[name] = ModuleInfo(
                name=name,
                path=path,
                source=source,
                lines=source.splitlines(),
                tree=tree,
                imports=imports,
                functions=functions,
                classes=classes,
                global_decls=global_decls,
                module_assigns=module_assigns,
            )

    # -- symbol resolution ---------------------------------------------

    def resolve_symbol(
        self, module: str, name: str, _depth: int = 0
    ) -> tuple[str, str, str] | None:
        """Resolve ``name`` in ``module`` to ``(kind, module, symbol)``.

        ``kind`` is ``"function"``, ``"class"``, or ``"module"`` (symbol
        empty for modules).  Returns ``None`` for names the analysis
        cannot prove anything about (builtins, third-party, locals).
        """
        if _depth > _MAX_ALIAS_DEPTH:
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.functions:
            return ("function", module, name)
        if name in info.classes:
            return ("class", module, name)
        target = info.imports.get(name)
        if target is None:
            return None
        if target in self.modules:
            return ("module", target, "")
        head, _, leaf = target.rpartition(".")
        if head and head in self.modules:
            return self.resolve_symbol(head, leaf, _depth + 1)
        return None

    def resolve_attr(
        self, module: str, base: str, attr: str
    ) -> tuple[str, str, str] | None:
        """Resolve ``base.attr`` where ``base`` may alias a module."""
        resolved = self.resolve_symbol(module, base)
        if resolved is None:
            # `import a.b.c` binds `a`; the chain lives in the table
            info = self.modules.get(module)
            if info is not None:
                dotted = info.imports.get(base)
                if dotted is not None and f"{dotted}.{attr}" in self.modules:
                    return ("module", f"{dotted}.{attr}", "")
            return None
        kind, mod, sym = resolved
        if kind == "module":
            if f"{mod}.{attr}" in self.modules:
                return ("module", f"{mod}.{attr}", "")
            return self.resolve_symbol(mod, attr)
        return None

    # -- function bodies -----------------------------------------------

    def function_ids(self) -> list[FunctionId]:
        out: list[FunctionId] = []
        for mod in self.modules.values():
            out.extend(f"{mod.name}:{fn}" for fn in mod.functions)
            for cls in mod.classes.values():
                out.extend(f"{mod.name}:{cls.name}.{m}" for m in cls.methods)
        return out

    def function_node(
        self, fid: FunctionId
    ) -> tuple[ModuleInfo, ClassInfo | None, ast.FunctionDef | ast.AsyncFunctionDef] | None:
        mod_name, _, qual = fid.partition(":")
        info = self.modules.get(mod_name)
        if info is None:
            return None
        if "." in qual:
            cls_name, _, meth = qual.partition(".")
            cls = info.classes.get(cls_name)
            if cls is None or meth not in cls.methods:
                return None
            return (info, cls, cls.methods[meth])
        fn = info.functions.get(qual)
        if fn is None:
            return None
        return (info, None, fn)

    # -- call graph ----------------------------------------------------

    def call_graph(self) -> dict[FunctionId, set[FunctionId]]:
        if self._edges is None:
            self._edges = {
                fid: self._callees(fid) for fid in self.function_ids()
            }
        return self._edges

    def _class_method_id(self, mod: str, cls: str, meth: str) -> FunctionId | None:
        info = self.modules.get(mod)
        if info is None:
            return None
        c = info.classes.get(cls)
        if c is not None and meth in c.methods:
            return f"{mod}:{cls}.{meth}"
        return None

    def _callable_id(self, resolved: tuple[str, str, str] | None) -> FunctionId | None:
        """Function id a resolved symbol calls into (ctor -> __init__)."""
        if resolved is None:
            return None
        kind, mod, sym = resolved
        if kind == "function":
            return f"{mod}:{sym}"
        if kind == "class":
            return self._class_method_id(mod, sym, "__init__")
        return None

    def _callees(self, fid: FunctionId) -> set[FunctionId]:
        located = self.function_node(fid)
        if located is None:
            return set()
        info, cls, fn = located
        edges: set[FunctionId] = set()
        # locals assigned from resolvable constructors: v = Cls(...)
        var_types: dict[str, tuple[str, str]] = {}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            ctor = self._resolve_call_target(info, node.value)
            if ctor is None or ctor[0] != "class":
                continue
            for t in node.targets:
                if isinstance(t, ast.Name):
                    var_types[t.id] = (ctor[1], ctor[2])
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                cid = self._callable_id(self.resolve_symbol(info.name, func.id))
                if cid is not None:
                    edges.add(cid)
            elif isinstance(func, ast.Attribute):
                recv = func.value
                if isinstance(recv, ast.Name):
                    if recv.id == "self" and cls is not None:
                        mid = self._class_method_id(info.name, cls.name, func.attr)
                        if mid is not None:
                            edges.add(mid)
                        continue
                    if recv.id in var_types:
                        mod, c = var_types[recv.id]
                        mid = self._class_method_id(mod, c, func.attr)
                        if mid is not None:
                            edges.add(mid)
                        continue
                    cid = self._callable_id(
                        self.resolve_attr(info.name, recv.id, func.attr)
                    )
                    if cid is not None:
                        edges.add(cid)
                elif isinstance(recv, ast.Call):
                    # direct Cls(...).m() chain
                    ctor = self._resolve_call_target(info, recv)
                    if ctor is not None and ctor[0] == "class":
                        init = self._class_method_id(ctor[1], ctor[2], "__init__")
                        if init is not None:
                            edges.add(init)
                        mid = self._class_method_id(ctor[1], ctor[2], func.attr)
                        if mid is not None:
                            edges.add(mid)
        return edges

    def _resolve_call_target(
        self, info: ModuleInfo, call: ast.Call
    ) -> tuple[str, str, str] | None:
        func = call.func
        if isinstance(func, ast.Name):
            return self.resolve_symbol(info.name, func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return self.resolve_attr(info.name, func.value.id, func.attr)
        return None

    def reachable_from(self, entries: list[FunctionId]) -> set[FunctionId]:
        graph = self.call_graph()
        seen: set[FunctionId] = set()
        frontier = [e for e in entries if e in graph]
        while frontier:
            fid = frontier.pop()
            if fid in seen:
                continue
            seen.add(fid)
            frontier.extend(graph.get(fid, ()))
        return seen

    def rel_path(self, info: ModuleInfo, root: pathlib.Path) -> str:
        try:
            return str(info.path.relative_to(root))
        except ValueError:
            return str(info.path)
