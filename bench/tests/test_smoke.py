"""Smoke tests of the benchmark itself: ``python -m pytest bench/tests -q``.

Not collected by the tier-1 suite (``testpaths = ["tests"]``).  They run the
real entry point at ``--smoke`` sizes and check that every declared name is
reported, that ``BENCHMARK.json`` and the run file agree, that the seed
changes the inputs, and that the correctness checks can fail.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from bench import compare  # noqa: E402
from bench.harness import run_workload  # noqa: E402
from bench.trace import NULL_TRACER  # noqa: E402
from bench.workloads import END_TO_END, PER_LAYER, registry  # noqa: E402

RUN = [sys.executable, os.path.join(ROOT, "bench", "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "run.json"
    done = run("--smoke", "--fixed", "--traced", "--seed", "5", "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_tables(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"] and spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(registry())
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert declared["setup_s"] == ("s", "lower")
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert 1 <= len(spec["per_layer"]) <= 128
    for name, (unit, better) in {**END_TO_END, **PER_LAYER}.items():
        assert NAME.match(name) and UNIT.match(unit) and better in ("lower", "higher")
    assert all(NAME.match(name) for name in registry())


def test_every_declared_name_is_reported(smoke_run, spec):
    records = smoke_run["records"]
    assert [(r["workload"], r["traced"]) for r in records] == [
        (w["name"], traced) for w in spec["workloads"] for traced in (False, True)
    ]
    for record in records:
        table = PER_LAYER if record["traced"] else END_TO_END
        assert set(record["metrics"]) == set(table), record["workload"]
        assert record["failed"] == 0, record["failures"]
        assert record["attempted"] >= 1 and record["units"] > 0 and record["wall_s"] > 0
        if record["traced"]:
            assert os.path.getsize(record["trace_file"]) > 0
        else:
            assert all(value > 0 for value in record["metrics"].values()), record["metrics"]
    for key in ("git_sha", "git_dirty", "started_utc", "cpu_model", "cpu_count", "python", "numpy"):
        assert key in smoke_run["provenance"]
    # stamped before the work: the set's start precedes each child's own start
    assert all(smoke_run["provenance"]["started_utc"] <= r["provenance"]["started_utc"]
               for r in records)


def test_layers_the_workload_exercises_are_nonzero(smoke_run):
    traced = {r["workload"]: r["metrics"] for r in smoke_run["records"] if r["traced"]}
    assert traced["fig5_bench"]["flowsim.self_s"] > 0 and traced["fig5_bench"]["miro.paths"] > 0
    assert traced["table_44k"]["bgp.propagate_s"] > 0 and traced["table_44k"]["bgp.view_bytes"] >= 0
    assert traced["path_query_10k"]["mifo.paths_built"] > 0
    assert traced["path_query_10k"]["bgp.queries"] > 0
    assert traced["scenario_flap"]["verify.dests_verified"] > 0
    assert traced["scenario_flap"]["prog.scenario.verify_s"] > 0
    assert traced["serve_default"]["service.flaps"] == 2
    assert traced["serve_small_batched"]["service.flushes"] > 0
    assert traced["serve_small_batched"]["service.checkpoint_bytes"] > 0


@pytest.mark.parametrize("trace,table", [("0", END_TO_END), ("1", PER_LAYER)])
def test_last_line_is_the_contract_object(trace, table):
    done = run("--workload", "serve_small_batched", "--smoke", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, (unit, _better) in table.items()
    }


def _session_members(sid: int) -> list[str]:
    """Live (non-zombie) processes of one session, from ``/proc``."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                state, _ppid, _pgrp, session = fh.read().rsplit(")", 1)[1].split()[:4]
        except OSError:
            continue
        if int(session) == sid and state != "Z":
            found.append(pid)
    return found


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_the_pool_probe_leaves_no_process_behind():
    # the traced pass of table_44k starts a 2-worker pool over shared memory;
    # neither a worker nor multiprocessing's resource tracker may outlive it
    args = ["--workload", "table_44k", "--smoke", "--seconds", "1", "--trace", "1"]
    proc = subprocess.Popen(
        [*RUN, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, start_new_session=True,
    )
    out, err = proc.communicate(timeout=300)
    left = _session_members(proc.pid)
    assert proc.returncode == 0, err
    assert json.loads(out.strip().splitlines()[-1])["metrics"]["bgp.pool_speedup"]["value"] > 0
    assert left == []


def test_seed_changes_inputs_and_digest(smoke_run, tmp_path):
    other = tmp_path / "other.json"
    assert run("--smoke", "--fixed", "--seed", "6", "--out", str(other)).returncode == 0
    first = {r["workload"]: r["output_digest"] for r in smoke_run["records"] if not r["traced"]}
    traced = {r["workload"]: r["output_digest"] for r in smoke_run["records"] if r["traced"]}
    with open(other, encoding="utf-8") as fh:
        second = {r["workload"]: r["output_digest"] for r in json.load(fh)["records"]}
    # same commit + same seed in another process (and under tracing): same digest
    assert first == traced
    assert all(first[name] != second[name] for name in first)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench", ignore=ignore)
    args = ["--workload", "table_44k", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0 and "{" not in done.stdout


# -- the checks can fail -----------------------------------------------------


def test_a_corrupted_path_fails_the_path_check():
    from bench.workloads.path_query_10k import PathQuery10k, bad_paths

    class Corrupted(PathQuery10k):
        def check(self):
            src, dst, path = self.kept[0]
            self.kept[0] = (src, dst, path[::-1])
            return super().check()

    record = run_workload(Corrupted, seed=3, seconds=1.0, fixed=True, trace=False, smoke=True)
    assert record["failed"] >= 1 and "does not run from src to dst" in record["failures"][0]
    inst = PathQuery10k(3, dict(PathQuery10k.sizes["smoke"], seconds=1.0), NULL_TRACER)
    src, dst = int(inst.nodes[5]), inst.dests[0]
    good = inst.builder.build_path(src, dst, lambda u, v: False, inst.spare).path
    assert bad_paths(inst.graph, [(src, dst, good)]) == []
    assert bad_paths(inst.graph, [(src, dst, good + good[-2:-1] + good[-1:])])  # valley / repeat


def test_a_corrupted_checkpoint_fails_the_restore_check():
    from bench.workloads.serve import ServeSmallBatched, check_restore

    inst = ServeSmallBatched(3, dict(ServeSmallBatched.sizes["smoke"], seconds=1.0), NULL_TRACER)
    text = inst.session.checkpoint_json()
    assert check_restore(inst.session, text, lambda s: s.drain(50)) == []
    state = json.loads(inst.session.checkpoint_json())
    state["session"]["clock_s"] += 1.0
    assert check_restore(inst.session, json.dumps(state), lambda s: s.drain(50))
    assert check_restore(inst.session, '{"format": "nope"}', lambda s: s.drain(50))


def test_a_wrong_view_fails_the_oracle_check():
    from bench.workloads.table_44k import Table44k, oracle_mismatches

    inst = Table44k(3, dict(Table44k.sizes["smoke"], seconds=1.0), NULL_TRACER)
    a, b = inst.blocks[0][:2]
    views = inst.engine.compute_many([a, b])
    assert oracle_mismatches(inst.graph, a, views[a]) == 0
    assert oracle_mismatches(inst.graph, a, views[b]) > 0


def test_a_changed_record_fails_the_replay_check():
    import dataclasses

    from bench.workloads.scenario_flap import ScenarioFlap, diff_records
    from bench.harness import Recorder

    inst = ScenarioFlap(3, dict(ScenarioFlap.sizes["smoke"], seconds=1.0), NULL_TRACER)
    inst.round(0, Recorder(), NULL_TRACER)
    rows = inst.first_records
    assert diff_records(rows, rows) == []
    changed = [dataclasses.replace(rows[0], flows_rerouted=rows[0].flows_rerouted + 1), *rows[1:]]
    assert diff_records(changed, rows) and diff_records(rows[:-1], rows)


# -- compare -----------------------------------------------------------------


def _run_file(path, **metrics) -> str:
    failed = metrics.pop("failed", 0)
    values = {"setup_s": 1.0, "units_per_s": 100.0, "lat_p50_ms": 2.0, "lat_tail_ms": 9.0,
              "peak_rss_mb": 64.0, **metrics}
    record = {"workload": "w", "traced": False, "failed": failed, "attempted": 10,
              "metrics": values}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"records": [record]}, fh)
    return str(path)


def test_compare_verdicts_and_exit_status(tmp_path, spec, capsys):
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["units_per_s"]
    base = _run_file(tmp_path / "base.json")
    assert compare.main([base, _run_file(tmp_path / "same.json")]) == 0
    assert "unchanged" in capsys.readouterr().out
    slower = _run_file(tmp_path / "slow.json", units_per_s=100.0 * (1 - bound) - 1)
    assert compare.main([base, slower]) == 1
    assert "regressed" in capsys.readouterr().out
    faster = _run_file(tmp_path / "fast.json", units_per_s=100.0 * (1 + bound) + 1)
    assert compare.main([base, faster]) == 0
    assert "improved" in capsys.readouterr().out
    assert compare.main([base, _run_file(tmp_path / "fail.json", failed=1)]) == 1
    # several noisy files a side: spread beyond the bound and overlapping -> unresolved
    noisy_base = [
        _run_file(tmp_path / f"b{i}.json", units_per_s=v) for i, v in enumerate((80, 100, 125))
    ]
    noisy_head = [
        _run_file(tmp_path / f"h{i}.json", units_per_s=v) for i, v in enumerate((82, 101, 120))
    ]
    assert compare.main([*noisy_base, "--", *noisy_head]) == 0
    assert "unresolved" in capsys.readouterr().out
