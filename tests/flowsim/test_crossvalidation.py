"""Incremental vs full solver, end to end over the figure experiments.

The simulator's ``solver="incremental"`` mode is an optimization, not a
model change: for every figure experiment the serialized result must be
byte-identical to ``solver="full"`` (modulo provenance), on both routing
backends.  Telemetry must tell the truth about the saved work: the
incremental run's ``flowsim.maxmin_iterations`` never exceeds the full
run's on the same event stream, and both modes emit a schema-valid
``solver_stats`` trace event.
"""

import pytest

from repro.bgp.propagation import DEFAULT_BACKEND
from repro.experiments import fig5, fig6, fig8, fig9
from repro.experiments.common import SharedContext
from repro.telemetry import Telemetry
from repro.telemetry.trace import validate_events

FIG8_DEPLOYMENTS = (0.1, 0.5, 1.0)  # subset: keeps the matrix fast


@pytest.fixture(autouse=True)
def fresh_contexts():
    saved = dict(SharedContext._cache)
    SharedContext._cache.clear()
    yield
    SharedContext._cache.clear()
    SharedContext._cache.update(saved)


def _run(mod, solver: str, backend: str = DEFAULT_BACKEND, telemetry=None):
    SharedContext._cache.clear()
    kwargs = {"backend": backend, "solver": solver}
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    if mod is fig8:
        kwargs["deployments"] = FIG8_DEPLOYMENTS
    return mod.run("test", **kwargs)


def _json(mod, solver: str, backend: str = DEFAULT_BACKEND) -> str:
    return _run(mod, solver, backend).to_json(include_provenance=False)


class TestByteIdentity:
    @pytest.mark.parametrize(
        "mod", [fig5, fig6, fig8, fig9], ids=lambda m: m.__name__
    )
    def test_incremental_equals_full(self, mod):
        assert _json(mod, "incremental") == _json(mod, "full")

    def test_incremental_equals_full_on_dict_backend(self, mod=fig9):
        assert _json(mod, "incremental", "dict") == _json(mod, "full", "dict")

    def test_solver_mode_is_backend_independent(self):
        assert _json(fig9, "incremental", "dict") == _json(
            fig9, "incremental", "array"
        )


class TestTelemetryCrosscheck:
    def _solver_stats(self, mod, solver: str):
        t = Telemetry()
        _run(mod, solver, telemetry=t)
        events = [
            e for e in t.trace_events() if e.get("kind") == "solver_stats"
        ]
        assert events, "no solver_stats event emitted"
        assert validate_events(events) == []
        return events, t.counters

    def test_incremental_iterations_never_exceed_full(self):
        inc_events, inc_counters = self._solver_stats(fig9, "incremental")
        full_events, full_counters = self._solver_stats(fig9, "full")
        inc_iters = inc_counters["flowsim.maxmin_iterations"]
        full_iters = full_counters["flowsim.maxmin_iterations"]
        assert 0 < inc_iters <= full_iters
        # Per-run event payloads agree with the counter totals.
        assert sum(e["maxmin_iterations"] for e in inc_events) == inc_iters
        assert sum(e["maxmin_iterations"] for e in full_events) == full_iters

    def test_solver_stats_labels_and_savings(self):
        inc_events, _ = self._solver_stats(fig9, "incremental")
        full_events, _ = self._solver_stats(fig9, "full")
        assert {e["solver"] for e in inc_events} == {"incremental"}
        assert {e["solver"] for e in full_events} == {"full"}
        # The pooled solver actually recycled columns at test scale…
        assert sum(e["cols_reused"] for e in inc_events) > 0
        # …and the full solver reports no pool/memo savings by definition.
        for e in full_events:
            assert e["pool_hits"] == 0
            assert e["cols_reused"] == 0
            assert e["warm_rounds_saved"] == 0

    def test_pool_counters_reach_the_session(self):
        _, counters = self._solver_stats(fig9, "incremental")
        assert counters.get("flowsim.cols_reused", 0) > 0
