"""The incremental-vs-full acceptance gate.

Every built-in scenario must produce **byte-identical**
``to_json(include_provenance=False)`` output whether routing is updated
incrementally (dirty-set re-propagation, rebased clean destinations,
memoized max-min solves) or fully recomputed after every event.  This is
the determinism contract that lets the incremental engine replace the
baseline without a correctness argument in every consumer.
"""

from __future__ import annotations

import json

import pytest

from repro.bgp.propagation import DEFAULT_BACKEND
from repro.experiments import scenario as scenario_exp
from repro.scenario.events import SCENARIOS


def _payload(name: str, *, mode: str, backend: str = DEFAULT_BACKEND, **kw) -> str:
    result = scenario_exp.run(
        "test", backend=backend, scenario=name, mode=mode, **kw
    )
    return result.to_json(include_provenance=False)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_incremental_matches_full(name):
    assert _payload(name, mode="incremental") == _payload(name, mode="full")


def test_array_backend_matches_dict():
    assert _payload("edge_flap", mode="incremental", backend="array") == _payload(
        "edge_flap", mode="incremental", backend="dict"
    )


def test_crosschecked_run_agrees(name="edge_flap"):
    """With the per-event state diff enabled the run must both pass the
    oracle and still serialize identically."""
    assert _payload(name, mode="incremental", crosscheck=True) == _payload(
        name, mode="full", crosscheck=True
    )


def test_provenance_records_mode_split():
    result = scenario_exp.run("test", scenario="edge_flap", mode="incremental")
    engine_meta = result.meta["scenario_engine"]
    assert engine_meta["mode"] == "incremental"
    # The edge-peering flap is the incremental showcase: most work rebased.
    assert engine_meta["dests_rebased"] > engine_meta["dests_recomputed"]
    # ... and none of that may leak into the determinism payload.
    payload = json.loads(result.to_json(include_provenance=False))
    assert "scenario_engine" not in payload["meta"]
    assert "backend" not in payload["meta"]
