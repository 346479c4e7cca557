"""Telemetry wired through the unified experiment API, end to end.

Acceptance criteria of the observability layer: a figure run with
telemetry on records the named pipeline phases, attaches the session
delta under the
provenance key ``meta["telemetry"]``, and — because telemetry is
provenance, not physics — leaves ``to_json(include_provenance=False)``
byte-identical to a run with telemetry off.
"""

import pytest

from repro import telemetry as tm
from repro.experiments import fig7, fig8, fig9
from repro.experiments.common import SharedContext
from repro.experiments.result import PROVENANCE_KEYS
from repro.telemetry import Telemetry

PIPELINE_PHASES = {
    "experiment.run",
    "topology.build",
    "bgp.propagate",
    "mifo.deflect",
    "flowsim.solve",
    "metrics.compute",
}


@pytest.fixture(autouse=True)
def fresh_contexts():
    saved = dict(SharedContext._cache)
    SharedContext._cache.clear()
    tm.activate(None)
    yield
    SharedContext._cache.clear()
    SharedContext._cache.update(saved)
    tm.activate(None)


def test_fig9_records_the_pipeline_phases():
    result = fig9.run("test", telemetry=True)
    telemetry = result.meta["telemetry"]
    phases = set(telemetry["spans"])
    assert PIPELINE_PHASES <= phases, phases
    assert len(phases) >= 5
    counters = telemetry["counters"]
    assert counters["bgp.destinations_converged"] > 0
    assert counters["flowsim.maxmin_iterations"] > 0


def test_telemetry_key_is_provenance():
    assert "telemetry" in PROVENANCE_KEYS
    result = fig7.run("test", telemetry=True)
    assert "telemetry" in result.meta
    assert "telemetry" not in result.to_json(include_provenance=False)


def test_disabled_run_attaches_nothing():
    result = fig7.run("test")
    assert "telemetry" not in result.meta


def test_block_histogram_accounts_for_every_propagation():
    t = Telemetry()
    result = fig8.run("test", backend="array", telemetry=t)
    telemetry = result.meta["telemetry"]
    assert not any(name.startswith("parallel.") for name in telemetry["gauges"])
    # bgp.propagate runs once per kernel block; the block-width histogram
    # must account for every span and, weighted by width, for every
    # destination the run converged.
    bounds, counts = (
        telemetry["histograms"]["bgp.block_dests"][k] for k in ("bounds", "counts")
    )
    assert counts[-1] == 0  # no block wider than the kernel's width
    assert telemetry["spans"]["bgp.propagate"]["count"] == sum(counts)
    converged = telemetry["counters"]["bgp.destinations_converged"]
    assert sum(w * c for w, c in zip(bounds, counts)) == converged > 0
    assert len(telemetry["spans"]) >= 5


@pytest.mark.parametrize("backend", ["dict", "array"])
def test_telemetry_does_not_perturb_results(backend):
    SharedContext._cache.clear()
    plain = fig7.run("test", backend=backend)
    SharedContext._cache.clear()
    instrumented = fig7.run("test", backend=backend, telemetry=True)
    assert plain.to_json(include_provenance=False) == instrumented.to_json(
        include_provenance=False
    )


def test_cross_backend_determinism_with_telemetry_on():
    SharedContext._cache.clear()
    via_dict = fig7.run("test", backend="dict", telemetry=True)
    SharedContext._cache.clear()
    via_array = fig7.run("test", backend="array", telemetry=True)
    assert via_dict.to_json(include_provenance=False) == via_array.to_json(
        include_provenance=False
    )
