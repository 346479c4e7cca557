"""Derive mifolint's protected-field sets from source instead of hand lists.

Three sets used to be hand-maintained frozensets in
``tools/mifolint/core.py`` and drifted whenever state grew.  They are
now computed from the code that *defines* them:

* **checkpointed state** — the union of underscore attributes *read* by
  ``repro.service.checkpoint.capture`` and underscore attributes
  *written* by the restore functions.  Capture reads define what the
  payload contains; restore writes define what replay rebuilds; their
  union is exactly the state whose out-of-band mutation breaks
  restore-then-replay byte identity.
* **slab state** — attributes of ``IncrementalMaxMin`` carrying a
  ``# mifocheck: slab-state`` marker on their ``__init__`` assignment
  line.  A purely syntactic rule cannot reproduce this set (some slab
  fields are rebound wholesale in ``solve``; some bookkeeping ints are
  stored just like arrays), so the solver declares it and MC104
  cross-checks the declaration against the subscript-store/``np.add.at``
  footprint of the slab-maintenance methods.
* **CSR arrays** — the ``np.ndarray``-annotated dataclass fields of
  ``CsrAdjacency`` and of ``PullSchedule``, the level schedule derived
  from it (shared read-only by every destination block just the same).

All three derivations raise :class:`DerivationError` when they come up
empty — an empty protected set silently disables MF003, which is the
exact failure mode this module exists to prevent.

Stdlib-only: everything works on the AST / source text, never imports
``repro``.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import re

__all__ = [
    "DerivationError",
    "checkpointed_state_fields",
    "checkpointed_state_fields_from_ast",
    "csr_array_fields",
    "csr_array_fields_from_ast",
    "slab_state_fields",
    "slab_state_fields_from_source",
]

#: repo root: tools/mifocheck/derive.py -> tools/mifocheck -> tools -> root
_ROOT = pathlib.Path(__file__).resolve().parents[2]

_CHECKPOINT_PATH = _ROOT / "src" / "repro" / "service" / "checkpoint.py"
_SLAB_PATH = _ROOT / "src" / "repro" / "flowsim" / "incremental.py"
_TOPOLOGY_PATH = _ROOT / "src" / "repro" / "topology" / "asgraph.py"

#: the attr and the marker must share a line — ``[^#\n]*`` keeps a
#: docstring's ``self._x`` from pairing with a later line's marker
SLAB_MARKER_RE = re.compile(r"self\.(_\w+)\b[^#\n]*#\s*mifocheck:\s*slab-state")


class DerivationError(RuntimeError):
    """A derived protected-field set came out empty or unreadable."""


def _find_function(tree: ast.Module, name: str) -> ast.FunctionDef | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def checkpointed_state_fields_from_ast(
    tree: ast.Module,
    *,
    capture: str = "capture",
    restores: tuple[str, ...] = ("_restore_engine", "_restore_session_state"),
) -> frozenset[str]:
    """Underscore attrs read by ``capture`` + written by the restores.

    The restore side collects *store* targets only (plain stores and the
    bases of subscript stores like ``eng._alloc[idx] = v``) — loads such
    as ``session._base_graph`` are inputs to the rebuild, not
    checkpointed state, and must not enter the protected set.
    """
    fields: set[str] = set()
    cap = _find_function(tree, capture)
    if cap is not None:
        for node in ast.walk(cap):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr.startswith("_")
            ):
                fields.add(node.attr)
    for name in restores:
        fn = _find_function(tree, name)
        if fn is None:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store) and node.attr.startswith("_"):
                    fields.add(node.attr)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                fields.update(_subscript_store_bases(node))
    return frozenset(f for f in fields if f.startswith("_"))


def _subscript_store_bases(node: ast.Assign | ast.AugAssign) -> set[str]:
    """Underscore attr bases of subscript stores: ``x._f[i] = v``."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    out: set[str] = set()
    for t in targets:
        if (
            isinstance(t, ast.Subscript)
            and isinstance(t.value, ast.Attribute)
            and t.value.attr.startswith("_")
        ):
            out.add(t.value.attr)
    return out


@functools.cache
def checkpointed_state_fields() -> frozenset[str]:
    """The derived checkpointed-state set of the real tree (cached)."""
    try:
        tree = ast.parse(_CHECKPOINT_PATH.read_text(encoding="utf-8"))
    except (OSError, SyntaxError) as exc:  # pragma: no cover - repo damage
        raise DerivationError(f"cannot parse {_CHECKPOINT_PATH}: {exc}") from exc
    fields = checkpointed_state_fields_from_ast(tree)
    if not fields:
        raise DerivationError(
            f"derived checkpointed-state set from {_CHECKPOINT_PATH} is empty"
        )
    return fields


def slab_state_fields_from_source(source: str) -> frozenset[str]:
    """Attrs carrying ``# mifocheck: slab-state`` markers in ``source``."""
    return frozenset(SLAB_MARKER_RE.findall(source))


@functools.cache
def slab_state_fields() -> frozenset[str]:
    """The declared slab-state set of the real tree (cached)."""
    try:
        source = _SLAB_PATH.read_text(encoding="utf-8")
    except OSError as exc:  # pragma: no cover - repo damage
        raise DerivationError(f"cannot read {_SLAB_PATH}: {exc}") from exc
    fields = slab_state_fields_from_source(source)
    if not fields:
        raise DerivationError(
            f"no '# mifocheck: slab-state' markers found in {_SLAB_PATH}"
        )
    return fields


def csr_array_fields_from_ast(
    tree: ast.Module,
    *,
    class_names: tuple[str, ...] = ("CsrAdjacency", "PullSchedule"),
) -> frozenset[str]:
    """``np.ndarray``-annotated dataclass fields of the CSR classes."""
    fields: set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name in class_names):
            continue
        for stmt in node.body:
            if not (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ):
                continue
            ann = stmt.annotation
            if (
                isinstance(ann, ast.Attribute)
                and ann.attr == "ndarray"
                and isinstance(ann.value, ast.Name)
                and ann.value.id in {"np", "numpy"}
            ):
                fields.add(stmt.target.id)
    return frozenset(fields)


@functools.cache
def csr_array_fields() -> frozenset[str]:
    """The derived CSR-array set of the real tree (cached)."""
    try:
        tree = ast.parse(_TOPOLOGY_PATH.read_text(encoding="utf-8"))
    except (OSError, SyntaxError) as exc:  # pragma: no cover - repo damage
        raise DerivationError(f"cannot parse {_TOPOLOGY_PATH}: {exc}") from exc
    fields = csr_array_fields_from_ast(tree)
    if not fields:
        raise DerivationError(
            f"derived CSR-array set from {_TOPOLOGY_PATH} is empty"
        )
    return fields
