"""Micro-benchmark of the mifocheck whole-program analyzer.

mifocheck runs as a CI gate over ``src/repro``, so its cost must stay
far below the test suite it accompanies.  This bench runs all four
passes in-process, asserts the shipped tree is finding-free and the
full run finishes well under the CI budget, and writes the summary
(runtime, findings count, per-pass re-run times) to
``results/staticcheck.txt``.
"""


from repro.telemetry import Stopwatch

from tools.mifocheck import default_config, run_passes
from tools.mifocheck.passes import RULES

from .conftest import write_result

CI_BUDGET_S = 30.0


class TestStaticAnalysisGate:
    def test_full_run_is_clean_and_fast(self, results_dir):
        cfg = default_config()
        sw = Stopwatch()
        pairs, program = run_passes(cfg)
        elapsed = sw.elapsed

        findings = [f for f, _text in pairs]
        assert findings == [], [f.render() for f in findings]
        assert elapsed < CI_BUDGET_S, elapsed

        per_pass = []
        for code in sorted(RULES):
            sw.restart()
            run_passes(cfg, select={code}, program=program)
            per_pass.append((code, sw.elapsed))

        lines = [
            "mifocheck whole-program analysis over src/repro",
            f"  modules analyzed : {len(program.modules)}",
            f"  findings         : {len(findings)}",
            f"  wall time (s)    : {elapsed:.3f}  (parse + all passes)",
        ]
        for code, dt in per_pass:
            lines.append(f"    {code} re-run on parsed program : {dt:.4f}s")
        write_result(results_dir, "staticcheck", "\n".join(lines))
