"""Unit tests for the repo-specific AST lint rules (tools/mifolint)."""

import pathlib
import subprocess
import sys
import textwrap

import pytest

from tools.mifolint import RULES, lint_paths, lint_source
from tools.mifolint.core import PathPolicy, _classify

REPO = pathlib.Path(__file__).resolve().parent.parent.parent


def _codes(source, **kw):
    return [v.code for v in lint_source(textwrap.dedent(source), **kw)]


class TestMF001UnseededRandomness:
    def test_module_level_random_flagged(self):
        src = """
            import random
            def _f() -> float:
                return random.random()
        """
        assert _codes(src) == ["MF001"]

    def test_seeded_random_instance_allowed(self):
        src = """
            import random
            def _f() -> float:
                rng = random.Random(42)
                return rng.random()
        """
        assert _codes(src) == []

    def test_unseeded_random_constructor_flagged(self):
        assert _codes("import random\nr = random.Random()\n") == ["MF001"]

    def test_numpy_legacy_global_flagged(self):
        src = """
            import numpy as np
            def _f():
                np.random.seed(0)
                return np.random.rand(3)
        """
        assert _codes(src) == ["MF001", "MF001"]

    def test_seeded_default_rng_allowed_unseeded_flagged(self):
        src = """
            from numpy.random import default_rng
            a = default_rng(7)
            b = default_rng()
        """
        assert _codes(src) == ["MF001"]

    def test_aliased_numpy_random_module_tracked(self):
        src = """
            import numpy.random as npr
            x = npr.normal()
        """
        assert _codes(src) == ["MF001"]

    def test_from_import_member_flagged(self):
        src = """
            from random import shuffle
            def _f(xs: list) -> None:
                shuffle(xs)
        """
        assert _codes(src) == ["MF001"]

    def test_non_library_code_exempt(self):
        src = "import random\nx = random.random()\n"
        assert _codes(src, library=False) == []


class TestMF002SetIteration:
    def test_for_over_set_call_flagged_in_hot_path(self):
        assert _codes("for x in set(items):\n    pass\n", hot=True) == ["MF002"]

    def test_for_over_set_literal_flagged(self):
        assert _codes("for x in {1, 2}:\n    pass\n", hot=True) == ["MF002"]

    def test_comprehension_over_keys_union_flagged(self):
        src = "out = [k for k in a.keys() | b.keys()]\n"
        assert _codes(src, hot=True) == ["MF002"]

    def test_sorted_set_allowed(self):
        assert _codes("for x in sorted(set(items)):\n    pass\n", hot=True) == []

    def test_dict_iteration_allowed(self):
        assert _codes("for k in mapping:\n    pass\n", hot=True) == []

    def test_membership_only_union_allowed(self):
        # `x in (a.keys() | b.keys())` never iterates in source order.
        assert _codes("ok = x in (a.keys() | b.keys())\n", hot=True) == []

    def test_cold_paths_exempt(self):
        assert _codes("for x in set(items):\n    pass\n", hot=False) == []


class TestMF003FrozenMutation:
    def test_mutator_call_flagged_outside_topology(self):
        assert _codes("graph.add_p2c(1, 2)\n") == ["MF003"]

    def test_mutator_call_allowed_with_exemption(self):
        assert _codes("g.add_as(1)\n", allow_mutators=True) == []

    def test_self_mutator_call_allowed(self):
        src = """
            class _ASGraph:
                def _from_links(self) -> None:
                    self.add_p2c(1, 2)
        """
        assert _codes(src) == []

    def test_graph_private_store_flagged(self):
        assert _codes("graph._frozen = False\n") == ["MF003"]

    def test_self_private_store_allowed(self):
        src = """
            class _ASGraph:
                def _freeze(self) -> None:
                    self._frozen = True
        """
        assert _codes(src) == []

    def test_read_access_allowed(self):
        assert _codes("x = csr.nbr_indices[0]\n") == []


class TestMF003SlabFields:
    def test_slab_field_assignment_flagged(self):
        assert _codes("solver._slab_rows = arr\n") == ["MF003"]

    def test_slab_element_store_flagged(self):
        assert _codes("solver._base_counts[3] = 0.0\n") == ["MF003"]

    def test_multiplicity_augmented_store_flagged(self):
        assert _codes("solver._mult[col] += 1.0\n") == ["MF003"]

    def test_incremental_module_exempt(self):
        src = """
            class _IncrementalMaxMin:
                def _intern(self) -> None:
                    self._slab_used = 0
                    self._mult[0] = 1.0
        """
        assert _codes(src) == []

    def test_read_access_allowed(self):
        assert _codes("x = solver._base_counts[0]\n") == []

    def test_nested_subscript_and_chained_owner_flagged(self):
        assert _codes("solver._col_start[0][1] = 0\n") == ["MF003"]
        assert _codes("self.engine.solver._mult[col] += 1.0\n") == ["MF003"]

    def test_tuple_target_and_delete_flagged(self):
        assert _codes("a, eng._alloc = b, c\ndel eng._flows[fid]\n") == ["MF003", "MF003"]

    def test_public_and_dunder_names_allowed(self):
        assert _codes("solver.cols_reused = 0\nobj.__dict__[k] = v\n") == []


class TestMF004AdHocClocks:
    def test_time_time_flagged(self):
        src = """
            import time
            def _f() -> float:
                return time.time()
        """
        assert _codes(src) == ["MF004"]

    def test_perf_counter_attribute_flagged(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert _codes(src) == ["MF004"]

    def test_from_import_member_flagged(self):
        src = """
            from time import monotonic
            def _f() -> float:
                return monotonic()
        """
        assert _codes(src) == ["MF004"]

    def test_aliased_module_tracked(self):
        src = "import time as t\nx = t.process_time_ns()\n"
        assert _codes(src) == ["MF004"]

    def test_sleep_is_not_a_clock_read(self):
        assert _codes("import time\ntime.sleep(0.1)\n") == []

    def test_telemetry_package_exempt(self):
        src = "import time\nx = time.perf_counter()\n"
        assert _codes(src, allow_timers=True) == []

    def test_non_library_code_exempt(self):
        src = "import time\nx = time.time()\n"
        assert _codes(src, library=False) == []

    def test_inline_suppression(self):
        src = "import time\nx = time.time()  # mifolint: disable=MF004\n"
        assert _codes(src) == []

    def test_unrelated_attribute_named_time_allowed(self):
        # `self.time()` or `clock.time()` is not the stdlib module.
        assert _codes("x = clock.time()\n") == []


class TestMF005Docstrings:
    def test_public_function_without_docstring_flagged(self):
        assert _codes("def pub() -> int:\n    return 1\n") == ["MF005"]

    def test_public_class_without_docstring_flagged(self):
        src = """
            class Pub:
                x: int = 1
        """
        assert _codes(src) == ["MF005"]

    def test_docstring_satisfies(self):
        src = '''
            def pub() -> int:
                """Returns one."""
                return 1
        '''
        assert _codes(src) == []

    def test_private_and_dunder_exempt(self):
        src = """
            class _Hidden:
                def __init__(self) -> None:
                    self.x = 1
                def _helper(self) -> None:
                    return None
        """
        assert _codes(src) == []

    def test_public_method_flagged(self):
        src = '''
            class Pub:
                """Documented."""
                def undocumented(self) -> None:
                    return None
        '''
        assert _codes(src) == ["MF005"]

    def test_overload_stub_exempt(self):
        src = """
            from typing import overload
            @overload
            def pub(x: int) -> int: ...
            @overload
            def pub(x: str) -> str: ...
        """
        assert _codes(src) == []

    def test_property_setter_exempt(self):
        src = '''
            class Pub:
                """Documented."""
                @property
                def value(self) -> int:
                    """The value."""
                    return self._v
                @value.setter
                def value(self, v: int) -> None:
                    self._v = v
        '''
        assert _codes(src) == []

    def test_stub_bodies_exempt(self):
        src = """
            class Proto:
                '''A protocol.'''
                def member(self) -> int: ...
                def other(self) -> None:
                    pass
        """
        assert _codes(src) == []

    def test_nested_functions_exempt(self):
        src = '''
            def pub() -> int:
                """Documented."""
                def inner() -> int:
                    return 1
                return inner()
        '''
        assert _codes(src) == []

    def test_non_library_code_exempt(self):
        assert _codes("def pub() -> None:\n    return None\n", library=False) == []

    def test_inline_suppression(self):
        src = "def pub() -> None:  # mifolint: disable=MF005\n    return None\n"
        assert _codes(src) == []


class TestSuppression:
    @pytest.mark.parametrize(
        "comment", ["# mifolint: disable=MF001", "# noqa: MF001"]
    )
    def test_inline_suppression(self, comment):
        src = f"import random\nx = random.random()  {comment}\n"
        assert _codes(src) == []

    def test_suppressing_wrong_code_does_nothing(self):
        src = "import random\nx = random.random()  # noqa: MF003\n"
        assert _codes(src) == ["MF001"]


class TestMF003ServiceState:
    def test_session_state_assignment_flagged(self):
        assert _codes("session._tick = 5\n") == ["MF003"]

    def test_engine_state_element_store_flagged(self):
        assert _codes("eng._congested[3] = True\n") == ["MF003"]

    def test_flow_table_store_flagged(self):
        assert _codes("eng._flows[fid] = flow\n") == ["MF003"]

    def test_self_store_allowed(self):
        # The owning class (scenario engine, service session) mutates its
        # own state freely — only external writers desynchronize it from
        # what the checkpoint would capture.
        src = """
            class _Engine:
                def _advance(self) -> None:
                    self._event_no += 1
                    self._congested[0] = True
        """
        assert _codes(src) == []

    def test_service_restore_path_exempt(self):
        src = "session._stream_index = 7\neng._alloc[:n] = values\n"
        assert _codes(src, allow_service=True) == []

    def test_owner_class_in_the_same_file_exempt(self):
        # A clone built by a method of the owning class (rebind/rebase).
        src = """
            class _View:
                def __init__(self) -> None:
                    self._rows = []
                def _rebind(self) -> "_View":
                    clone = object.__new__(_View)
                    clone._rows = self._rows
                    return clone
            other._rows[0] = 1
            other._cols = 2
        """
        assert _codes(src) == ["MF003"]

    def test_read_access_allowed(self):
        assert _codes("x = session._tick\n") == []


class TestClassification:
    def test_library_hot_and_topology_flags(self):
        policy = _classify(pathlib.Path("src/repro/bgp/propagation.py"))
        assert policy == PathPolicy(library=True, hot=True, docstrings=True)
        policy = _classify(pathlib.Path("src/repro/topology/generator.py"))
        assert policy == PathPolicy(
            library=True, hot=True, docstrings=True, allow_mutators=True
        )
        policy = _classify(pathlib.Path("src/repro/experiments/fig5.py"))
        assert policy == PathPolicy(library=True, hot=False, docstrings=True)
        policy = _classify(pathlib.Path("src/repro/telemetry/core.py"))
        assert policy == PathPolicy(
            library=True, hot=False, docstrings=True, allow_timers=True
        )
        policy = _classify(pathlib.Path("src/repro/flowsim/simulator.py"))
        assert policy == PathPolicy(library=True, hot=True, docstrings=True)
        policy = _classify(pathlib.Path("src/repro/flowsim/incremental.py"))
        assert policy == PathPolicy(library=True, hot=True, docstrings=True)
        policy = _classify(pathlib.Path("src/repro/scenario/engine.py"))
        assert policy == PathPolicy(library=True, hot=True, docstrings=True)
        policy = _classify(pathlib.Path("src/repro/service/checkpoint.py"))
        assert policy == PathPolicy(
            library=True, hot=True, docstrings=True, allow_service=True
        )
        policy = _classify(pathlib.Path("tests/bgp/test_parallel.py"))
        assert policy.library is False and policy.docstrings is False

    def test_tooling_paths_get_determinism_rules_without_docstrings(self):
        # tools/ and benchmarks/ are held to MF001/MF004 but not MF005.
        for p in ("tools/mifolint/core.py", "benchmarks/test_micro.py"):
            policy = _classify(pathlib.Path(p))
            assert policy == PathPolicy(library=True, hot=False, docstrings=False), p

    def test_select_filters(self, tmp_path):
        f = tmp_path / "src" / "repro" / "bgp" / "bad.py"
        f.parent.mkdir(parents=True)
        f.write_text("import random\nx = random.random()\nfor a in set(x):\n    pass\n")
        all_codes = {v.code for v in lint_paths([f])}
        assert all_codes == {"MF001", "MF002"}
        only = {v.code for v in lint_paths([f], select=frozenset({"MF002"}))}
        assert only == {"MF002"}


class TestRepoIsClean:
    def test_src_and_tests_pass_the_linter(self):
        violations = lint_paths([REPO / "src", REPO / "tests"])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_cli_exit_codes(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.mifolint", "src", "tests"],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

        bad = tmp_path / "src" / "repro" / "x.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tools.mifolint", str(bad)],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "MF001" in proc.stdout

    def test_rule_table_listed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.mifolint", "--list-rules"],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for code in RULES:
            assert code in proc.stdout
