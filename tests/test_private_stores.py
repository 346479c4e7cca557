"""No code stores into another object's private state.

A private attribute belongs to the class that assigns it on ``self``. A
store from outside (``graph._frozen = False``, ``solver._mult[col] +=
1.0``) bypasses the owner's invariants, and no run can be trusted to
notice it, since it may leave every later result as it was. So this one
rule stays a check on the source. A store into ``obj._name`` (also
``obj._name[…]``, ``+=``, ``del``) is allowed when ``obj`` is ``self`` or
``cls``, when the same file assigns ``self._name`` (clones built by
``rebind``/``rebase``), and under ``repro/service``, which restores
checkpoints. A test that corrupts state on purpose says so on the line,
after ``# private-store:``.
"""

import ast
import pathlib
import textwrap

REPO = pathlib.Path(__file__).resolve().parent.parent


def foreign_stores(source):
    """``(line, name)`` of every store into another object's private state."""
    tree = ast.parse(source)
    lines = source.splitlines()
    owned = set()
    stores = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Attribute, ast.Subscript)) or isinstance(node.ctx, ast.Load):
            continue
        assigned = isinstance(node, ast.Attribute)  # not just an item of it
        while isinstance(node, ast.Subscript):
            node = node.value
        if not isinstance(node, ast.Attribute):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            if assigned:
                owned.add(node.attr)
        elif node.attr.startswith("_") and not node.attr.endswith("__"):
            stores.append(node)
    return sorted(
        (store.lineno, store.attr)
        for store in stores
        if store.attr not in owned and "# private-store:" not in lines[store.lineno - 1]
    )


def test_the_tree_stores_into_no_foreign_private_state():
    found = [
        f"{path.relative_to(REPO)}:{line}: store into .{name}"
        for root in ("src", "tests", "benchmarks", "examples")
        for path in sorted((REPO / root).rglob("*.py"))
        if "repro/service/" not in path.as_posix()
        for line, name in foreign_stores(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_each_kind_of_store_is_seen():
    source = textwrap.dedent(
        """\
        graph._frozen = False
        self.engine.solver._mult[col] += 1.0
        solver._col_start[0][1] = 0
        a, eng._alloc = b, c
        del eng._flows[fid]
        solver._rates[col] = 0.0  # private-store: planted
        x, solver.cols_reused, obj.__dict__[k] = session._tick, 0, 0
        self._rows, self._cols[0] = [], 0
        clone._rows = cls._count = clone._cols = self._rows
        """
    )
    assert foreign_stores(source) == [
        (1, "_frozen"), (2, "_mult"), (3, "_col_start"), (4, "_alloc"), (5, "_flows"),
        (9, "_cols"),
    ]
