"""Tests for the mifocheck whole-program analyzer.

Three layers:

* the planted-bug fixture corpus under ``tests/tools/fixtures/`` — each
  pass must fire on its fixture with the exact rule code and line;
* the shipped ``src/repro`` tree — every pass must be finding-free, and
  deleting a single ``capture()`` field from a scratch copy must make
  MC101 fail;
* the CLI — exit codes, report formats, and the baseline workflow.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from tools.mifocheck import AnalysisConfig, default_config, run_passes
from tools.mifocheck.passes import RULES

REPO = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def line_of(path: pathlib.Path, needle: str) -> int:
    """1-based line number of the first line containing ``needle``."""
    for i, text in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if needle in text:
            return i
    raise AssertionError(f"{needle!r} not found in {path}")


def fixture_config(
    name: str, root: pathlib.Path | None = None, **overrides: object
) -> AnalysisConfig:
    """An :class:`AnalysisConfig` re-pointed at a fixture mini-package."""
    base = root if root is not None else FIXTURES / name
    fields: dict[str, object] = dict(
        source_root=base,
        package="app",
        checkpoint_module="app.checkpoint",
        capture_function="capture",
        restore_functions=("restore",),
        checkpoint_targets=(("app.session", "Session"),),
        stream_module="app.stream",
        stream_class="Stream",
        stream_method="event_at",
        slab_module="app.solver",
        slab_class="Solver",
        slab_methods=("_intern", "add"),
        topology_module="app.topology",
        csr_class="Csr",
        mifolint_core=base / "fake_mifolint_core.py",
    )
    fields.update(overrides)
    return AnalysisConfig(**fields)  # type: ignore[arg-type]


def run_fixture(name: str, code: str, root: pathlib.Path | None = None):
    pairs, _program = run_passes(fixture_config(name, root=root), select={code})
    return [f for f, _text in pairs]


def copy_fixture(tmp_path: pathlib.Path, name: str) -> pathlib.Path:
    dst = tmp_path / name
    shutil.copytree(FIXTURES / name, dst, ignore=shutil.ignore_patterns("__pycache__"))
    return dst


def rewrite(path: pathlib.Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text, f"{old!r} not found in {path}"
    path.write_text(text.replace(old, new), encoding="utf-8")


# ----------------------------------------------------------------------
# MC101 — checkpoint completeness
# ----------------------------------------------------------------------


class TestMC101Fixture:
    def test_planted_uncaptured_attr_detected_at_exact_line(self):
        findings = run_fixture("mc101", "MC101")
        assert len(findings) == 1
        f = findings[0]
        assert f.code == "MC101"
        assert f.path == "mc101/app/session.py"
        assert f.line == line_of(
            FIXTURES / "mc101" / "app" / "session.py", "self._leak = 0.0"
        )
        assert "'_leak'" in f.message
        assert "not captured" in f.message

    def test_suppression_comment_silences_the_finding(self, tmp_path):
        root = copy_fixture(tmp_path, "mc101")
        rewrite(
            root / "app" / "session.py",
            "# planted MC101: never captured, never declared",
            "# mifocheck: disable=MC101",
        )
        assert run_fixture("mc101", "MC101", root=root) == []

    def test_inline_derivable_marker_covers(self, tmp_path):
        root = copy_fixture(tmp_path, "mc101")
        rewrite(
            root / "app" / "session.py",
            "# planted MC101: never captured, never declared",
            "# mifocheck: derivable: rebuilt by replaying the entries",
        )
        assert run_fixture("mc101", "MC101", root=root) == []

    def test_stale_derivable_entry_flagged(self, tmp_path):
        root = copy_fixture(tmp_path, "mc101")
        rewrite(
            root / "app" / "session.py",
            '"history": "rebuilt from the captured tick count on restore",',
            '"history": "rebuilt from the captured tick count on restore",\n'
            '        "ghost": "an attribute the class no longer assigns",',
        )
        findings = run_fixture("mc101", "MC101", root=root)
        stale = [f for f in findings if "stale DERIVABLE entry 'ghost'" in f.message]
        assert len(stale) == 1

    def test_redundant_derivable_entry_flagged(self, tmp_path):
        root = copy_fixture(tmp_path, "mc101")
        rewrite(
            root / "app" / "session.py",
            '"history": "rebuilt from the captured tick count on restore",',
            '"history": "rebuilt from the captured tick count on restore",\n'
            '        "_tick_no": "already captured, so this masks regressions",',
        )
        findings = run_fixture("mc101", "MC101", root=root)
        assert any("redundant DERIVABLE entry '_tick_no'" in f.message for f in findings)


# ----------------------------------------------------------------------
# MC103 — stream purity
# ----------------------------------------------------------------------


class TestMC103Fixture:
    def test_all_planted_impurities_detected_at_exact_lines(self):
        findings = run_fixture("mc103", "MC103")
        src = FIXTURES / "mc103" / "app" / "stream.py"
        assert len(findings) == 4
        assert all(
            f.code == "MC103" and f.path == "mc103/app/stream.py" for f in findings
        )
        expected = [
            (line_of(src, "self._cursor = index"), "store to self._cursor"),
            (line_of(src, "random.random()"), "unseeded stdlib randomness"),
            (line_of(src, "time.time()"), "wall-clock read time.time()"),
            (line_of(src, "stamp + jitter + _DRIFT"), "mutable module global '_DRIFT'"),
        ]
        for line, needle in expected:
            assert any(
                f.line == line and needle in f.message for f in findings
            ), (line, needle)

    def test_missing_entry_point_is_reported(self):
        pairs, _ = run_passes(
            fixture_config("mc103", stream_class="Missing"), select={"MC103"}
        )
        findings = [f for f, _text in pairs]
        assert len(findings) == 1
        assert findings[0].code == "MC103"
        assert "not found" in findings[0].message

    def test_forbidden_helper_in_closure_detected(self, tmp_path):
        """A batch-application helper reached from event_at is a finding."""
        root = copy_fixture(tmp_path, "mc103")
        src = root / "app" / "stream.py"
        rewrite(
            src,
            "return index, stamp + jitter + _DRIFT",
            "return apply_batch(index, stamp + jitter + _DRIFT)",
        )
        src.write_text(
            src.read_text(encoding="utf-8")
            + "\n\ndef apply_batch(index: int, value: float)"
            + " -> tuple[int, float]:\n"
            + '    """Stand-in for the service batch applier."""\n'
            + "    return index, value\n",
            encoding="utf-8",
        )
        pairs, _ = run_passes(
            fixture_config(
                "mc103",
                root=root,
                stream_forbidden=("app.stream:apply_batch",),
            ),
            select={"MC103"},
        )
        findings = [f for f, _text in pairs]
        forbidden = [
            f for f in findings if "batch-application helper" in f.message
        ]
        assert len(forbidden) == 1
        assert forbidden[0].line == line_of(src, "def apply_batch")
        assert "apply_batch()" in forbidden[0].message
        assert len(findings) == 5  # the four planted impurities survive

    def test_unreachable_forbidden_helper_is_silent(self):
        """Forbidden names only fire when actually inside the closure."""
        pairs, _ = run_passes(
            fixture_config(
                "mc103", stream_forbidden=("app.stream:calibrate",)
            ),
            select={"MC103"},
        )
        findings = [f for f, _text in pairs]
        assert len(findings) == 4
        assert not any("batch-application" in f.message for f in findings)


# ----------------------------------------------------------------------
# MC104 — protected-field inference
# ----------------------------------------------------------------------


class TestMC104Fixture:
    def test_unmarked_mutation_and_stale_literal_detected(self):
        findings = run_fixture("mc104", "MC104")
        solver = FIXTURES / "mc104" / "app" / "solver.py"
        core = FIXTURES / "mc104" / "fake_mifolint_core.py"
        assert len(findings) == 2
        mutation = [f for f in findings if "'_cols'" in f.message]
        assert len(mutation) == 1
        assert mutation[0].path == "mc104/app/solver.py"
        assert mutation[0].line == line_of(solver, "self._cols[index] = value")
        assert "slab-state' marker" in mutation[0].message
        literal = [f for f in findings if "hand-maintained SLAB_FIELDS" in f.message]
        assert len(literal) == 1
        assert literal[0].path == "mc104/fake_mifolint_core.py"
        assert literal[0].line == line_of(core, "SLAB_FIELDS: frozenset")
        assert "extra: _stale" in literal[0].message

    def test_marking_the_field_leaves_only_the_stale_literal(self, tmp_path):
        root = copy_fixture(tmp_path, "mc104")
        rewrite(
            root / "app" / "solver.py",
            "# planted MC104: mutated but unmarked",
            "# mifocheck: slab-state",
        )
        findings = run_fixture("mc104", "MC104", root=root)
        assert len(findings) == 1
        assert "missing: _cols; extra: _stale" in findings[0].message

    def test_empty_derived_slab_set_is_flagged(self, tmp_path):
        root = copy_fixture(tmp_path, "mc104")
        rewrite(root / "app" / "solver.py", "# mifocheck: slab-state", "#")
        findings = run_fixture("mc104", "MC104", root=root)
        assert any(
            "derived set SLAB_FIELDS" in f.message and "empty" in f.message
            for f in findings
        )


# ----------------------------------------------------------------------
# the shipped tree
# ----------------------------------------------------------------------


class TestRealTree:
    def test_shipped_src_repro_is_finding_free(self):
        pairs, _program = run_passes(default_config())
        assert [f.render() for f, _text in pairs] == []


@pytest.fixture()
def real_copy(tmp_path):
    """A scratch copy of ``src/`` to plant regressions into."""
    dst = tmp_path / "repo"
    dst.mkdir()
    shutil.copytree(
        REPO / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    return dst


class TestDeletionRegressions:
    def test_deleting_a_capture_field_fires_mc101(self, real_copy):
        ck = real_copy / "src" / "repro" / "service" / "checkpoint.py"
        rewrite(ck, '"stream_index": session._stream_index,', "")
        pairs, _ = run_passes(default_config(real_copy), select={"MC101"})
        findings = [f for f, _text in pairs]
        assert any(
            f.code == "MC101"
            and f.path == "src/repro/service/session.py"
            and "'_stream_index'" in f.message
            for f in findings
        ), [f.render() for f in findings]

    def test_deleting_a_detector_field_fires_mc101(self, real_copy):
        ck = real_copy / "src" / "repro" / "service" / "checkpoint.py"
        rewrite(ck, "det._cp_streak,", "0,")
        pairs, _ = run_passes(default_config(real_copy), select={"MC101"})
        findings = [f for f, _text in pairs]
        assert any(
            f.code == "MC101"
            and f.path == "src/repro/measure/changepoint.py"
            and "'_cp_streak'" in f.message
            for f in findings
        ), [f.render() for f in findings]

    def test_deleting_the_monitor_counter_fires_mc101(self, real_copy):
        ck = real_copy / "src" / "repro" / "service" / "checkpoint.py"
        rewrite(ck, '"samples_total": mon._rtt_samples_total,', "")
        pairs, _ = run_passes(default_config(real_copy), select={"MC101"})
        findings = [f for f, _text in pairs]
        assert any(
            f.code == "MC101"
            and f.path == "src/repro/measure/rtt.py"
            and "'_rtt_samples_total'" in f.message
            for f in findings
        ), [f.render() for f in findings]


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------


def cli(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "tools.mifocheck", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


class TestCli:
    def test_list_rules(self):
        proc = cli("--list-rules")
        assert proc.returncode == 0
        assert sorted(RULES) == ["MC101", "MC103", "MC104"]
        for code in RULES:
            assert code in proc.stdout

    def test_unknown_rule_code_rejected(self):
        proc = cli("--select", "MC999")
        assert proc.returncode == 2
        assert "unknown rule code" in proc.stderr

    def test_clean_tree_exits_zero_with_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        proc = cli("--format", "json", "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["tool"] == "mifocheck"
        assert doc["findings"] == []
        assert doc["summary"]["total"] == 0
        assert "runtime_s" in doc

    def test_baseline_workflow(self, real_copy, tmp_path):
        ck = real_copy / "src" / "repro" / "service" / "checkpoint.py"
        rewrite(ck, '"stream_index": session._stream_index,', "")
        dirty = cli("--root", str(real_copy))
        assert dirty.returncode == 1
        assert "MC101" in dirty.stdout
        baseline = tmp_path / "baseline.json"
        wrote = cli("--root", str(real_copy), "--write-baseline", str(baseline))
        assert wrote.returncode == 0
        clean = cli("--root", str(real_copy), "--baseline", str(baseline))
        assert clean.returncode == 0, clean.stdout
        assert "baselined" in clean.stderr
