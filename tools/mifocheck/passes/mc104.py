"""MC104 — protected-field inference.

MF003 in mifolint protects checkpointed service state, the solver slab,
and the frozen CSR arrays from out-of-band mutation — but a protection
list that must be edited by hand whenever state grows is itself a drift
hazard.  This pass derives the three sets from the code that defines
them (see :mod:`tools.mifocheck.derive`) and checks:

* each derived set is non-empty (an empty set silently disables MF003);
* the declared slab-state markers are consistent with the solver's
  actual mutation footprint: every attribute subscript-stored or
  ``np.add.at``-targeted inside the slab-maintenance methods must carry
  a marker (dict-valued bookkeeping attrs are exempt — they are keyed
  caches, not slab arrays), and every marker must name an attribute
  ``__init__`` actually assigns;
* ``tools/mifolint/core.py`` contains no hand-maintained frozenset that
  disagrees with the derived sets — a stale literal is flagged with the
  exact missing/extra field names.
"""

from __future__ import annotations

import ast
import pathlib

from ..config import AnalysisConfig
from ..derive import (
    checkpointed_state_fields_from_ast,
    csr_array_fields_from_ast,
    slab_state_fields_from_source,
)
from ..program import Program
from ...lintshared import Finding

CODE = "MC104"
DESCRIPTION = (
    "a protected-field set (checkpointed state, slab, CSR) is empty, "
    "inconsistent with the mutation footprint, or restated stale in mifolint"
)

#: mifolint names -> which derived set they must match
_MIFOLINT_SETS = ("SERVICE_STATE_FIELDS", "SLAB_FIELDS", "CSR_FIELDS")


def _derived_sets(
    program: Program, cfg: AnalysisConfig
) -> dict[str, tuple[frozenset[str], str]]:
    """name -> (fields, defining module) for the three derived sets."""
    out: dict[str, tuple[frozenset[str], str]] = {}
    ck = program.modules.get(cfg.checkpoint_module)
    if ck is not None:
        out["SERVICE_STATE_FIELDS"] = (
            checkpointed_state_fields_from_ast(
                ck.tree,
                capture=cfg.capture_function,
                restores=cfg.restore_functions,
            ),
            cfg.checkpoint_module,
        )
    slab = program.modules.get(cfg.slab_module)
    if slab is not None:
        out["SLAB_FIELDS"] = (
            slab_state_fields_from_source(slab.source),
            cfg.slab_module,
        )
    topo = program.modules.get(cfg.topology_module)
    if topo is not None:
        out["CSR_FIELDS"] = (
            csr_array_fields_from_ast(
                topo.tree, class_names=(cfg.csr_class, *cfg.csr_derived_classes)
            ),
            cfg.topology_module,
        )
    return out


def _dict_valued_attrs(cls_node: ast.ClassDef) -> set[str]:
    """Attrs whose ``__init__`` assignment is a dict literal/ctor."""
    out: set[str] = set()
    for stmt in cls_node.body:
        if not (isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            is_dict = isinstance(value, ast.Dict) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in {"dict", "defaultdict"}
            )
            if not is_dict:
                continue
            for t in targets:
                if (
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ):
                    out.add(t.attr)
    return out


def _slab_mutation_core(
    program: Program, cfg: AnalysisConfig
) -> tuple[dict[str, int], set[str]] | None:
    """(attr -> first mutation line) in slab methods, + dict-attr set."""
    info = program.modules.get(cfg.slab_module)
    cls = info.classes.get(cfg.slab_class) if info else None
    if info is None or cls is None:
        return None
    mutated: dict[str, int] = {}

    def note(attr: str, line: int) -> None:
        if attr not in mutated:
            mutated[attr] = line

    for name in cfg.slab_methods:
        fn = cls.methods.get(name)
        if fn is None:
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    list(node.targets)
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for t in targets:
                    if (
                        isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Attribute)
                        and isinstance(t.value.value, ast.Name)
                        and t.value.value.id == "self"
                    ):
                        note(t.value.attr, t.lineno)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "at"
                and isinstance(node.func.value, ast.Attribute)
                and node.args
            ):
                # np.add.at(self._x, idx, v) mutates self._x in place
                first = node.args[0]
                if (
                    isinstance(first, ast.Attribute)
                    and isinstance(first.value, ast.Name)
                    and first.value.id == "self"
                ):
                    note(first.attr, node.lineno)
    return mutated, _dict_valued_attrs(cls.node)


def _mifolint_literals(core_path: pathlib.Path) -> dict[str, tuple[frozenset[str], int]]:
    """Hand-maintained ``NAME = frozenset({...})`` literals in mifolint."""
    try:
        tree = ast.parse(core_path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return {}
    out: dict[str, tuple[frozenset[str], int]] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            t, v = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            t, v = stmt.target, stmt.value
        else:
            continue
        if not (isinstance(t, ast.Name) and t.id in _MIFOLINT_SETS):
            continue
        elts: list[ast.expr] | None = None
        if isinstance(v, ast.Call) and isinstance(v.func, ast.Name) and v.func.id == "frozenset":
            if v.args and isinstance(v.args[0], (ast.Set, ast.List, ast.Tuple)):
                elts = v.args[0].elts
        elif isinstance(v, ast.Set):
            elts = v.elts
        if elts is None:
            continue  # an import or computed expression, not a hand list
        names = frozenset(
            e.value for e in elts if isinstance(e, ast.Constant) and isinstance(e.value, str)
        )
        out[t.id] = (names, stmt.lineno)
    return out


def run(
    program: Program, cfg: AnalysisConfig, root: pathlib.Path
) -> list[Finding]:
    findings: list[Finding] = []
    derived = _derived_sets(program, cfg)
    for name, (fields, mod_name) in sorted(derived.items()):
        if not fields:
            info = program.modules[mod_name]
            findings.append(
                Finding(
                    path=program.rel_path(info, root),
                    line=1,
                    col=0,
                    code=CODE,
                    message=(
                        f"derived set {name} from {mod_name} is empty: "
                        "MF003 protection would be silently disabled"
                    ),
                )
            )
    core = _slab_mutation_core(program, cfg)
    if core is not None and "SLAB_FIELDS" in derived:
        mutated, dict_attrs = core
        markers = derived["SLAB_FIELDS"][0]
        info = program.modules[cfg.slab_module]
        path = program.rel_path(info, root)
        cls = info.classes[cfg.slab_class]
        for attr, line in sorted(mutated.items(), key=lambda kv: kv[1]):
            if attr in markers or attr in dict_attrs or not attr.startswith("_"):
                continue
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=0,
                    code=CODE,
                    message=(
                        f"slab-maintenance methods mutate '{attr}' but its "
                        "__init__ assignment carries no "
                        "'# mifocheck: slab-state' marker"
                    ),
                )
            )
        for attr in sorted(markers):
            if attr not in cls.attrs:
                findings.append(
                    Finding(
                        path=path,
                        line=1,
                        col=0,
                        code=CODE,
                        message=(
                            f"stale slab-state marker '{attr}': "
                            f"{cfg.slab_class} never assigns it"
                        ),
                    )
                )
    literals = _mifolint_literals(cfg.mifolint_core)
    if literals:
        try:
            core_rel = str(cfg.mifolint_core.relative_to(root))
        except ValueError:
            core_rel = str(cfg.mifolint_core)
        for name, (names, line) in sorted(literals.items()):
            if name not in derived:
                continue
            want = derived[name][0]
            if names == want:
                continue
            missing = ", ".join(sorted(want - names)) or "-"
            extra = ", ".join(sorted(names - want)) or "-"
            findings.append(
                Finding(
                    path=core_rel,
                    line=line,
                    col=0,
                    code=CODE,
                    message=(
                        f"hand-maintained {name} in mifolint disagrees with "
                        f"the derived set (missing: {missing}; extra: {extra}); "
                        "import it from tools.mifocheck.derive instead"
                    ),
                )
            )
    return findings
