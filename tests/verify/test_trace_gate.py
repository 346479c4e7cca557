"""The gate's trace cross-check: recorded deflections vs. FIB state.

A real run's recorded trace must pass; doctored records — wrong default
next hop, a non-RIB alternative, a valley-violating move, a non-capable
deflector — must each produce a specific refutation.
"""

import pytest

from repro import telemetry as tm
from repro.bgp.propagation import RoutingCache
from repro.errors import VerificationError
from repro.errors import LoopDetectedError, NoRouteError
from repro.mifo.deflection import MifoPathBuilder
from repro.telemetry import Telemetry
from repro.topology.generator import TopologyConfig, generate_topology
from repro.verify.gate import crosscheck_trace, post_run_gate


@pytest.fixture(scope="module")
def setting():
    graph = generate_topology(TopologyConfig(n_ases=150, seed=11))
    routing = RoutingCache(graph)
    return graph, routing


@pytest.fixture(autouse=True)
def _clean_sink():
    prev = tm.active()
    tm.activate(None)
    yield
    tm.activate(prev)


def _recorded_trace(graph, routing, max_events=50, event_fields=None):
    """Drive the deflection builder with telemetry on; return real events."""
    t = Telemetry()
    tm.activate(t)
    capable = frozenset(graph.nodes())
    builder = MifoPathBuilder(graph, routing, capable, event_fields=event_fields)

    def congested(u: int, v: int) -> bool:
        return (u + v) % 3 == 0

    def spare(u: int, v: int) -> float:
        return float((u * 31 + v) % 7 + 1) * 1e8

    nodes = sorted(graph.nodes())
    for dst in nodes[:30]:
        for src in nodes[:30]:
            if src == dst:
                continue
            try:
                builder.build_path(src, dst, congested, spare)
            except (NoRouteError, LoopDetectedError):
                continue
            events = [
                e for e in t.trace_events() if e["kind"] == "deflection"
            ]
            if len(events) >= max_events:
                tm.activate(None)
                return events
    tm.activate(None)
    events = [e for e in t.trace_events() if e["kind"] == "deflection"]
    assert events, "fixture produced no deflections; tighten the congestion fn"
    return events


def test_genuine_trace_passes(setting):
    graph, routing = setting
    events = _recorded_trace(graph, routing)
    assert crosscheck_trace(graph, routing, events) == []


def test_gate_accepts_genuine_trace(setting):
    graph, routing = setting
    events = _recorded_trace(graph, routing)
    report = post_run_gate(graph, routing, events=events)
    assert report.ok


def test_wrong_default_nh_refuted(setting):
    graph, routing = setting
    ev = dict(_recorded_trace(graph, routing)[0])
    ev["default_nh"] = -1
    problems = crosscheck_trace(graph, routing, [ev])
    assert any("default next hop" in p for p in problems)


def test_deflection_to_default_refuted(setting):
    graph, routing = setting
    ev = dict(_recorded_trace(graph, routing)[0])
    ev["chosen"] = ev["default_nh"]
    problems = crosscheck_trace(graph, routing, [ev])
    assert any("default next hop" in p for p in problems)


def test_non_rib_alternative_refuted(setting):
    graph, routing = setting
    ev = dict(_recorded_trace(graph, routing)[0])
    ev["chosen"] = -42
    problems = crosscheck_trace(graph, routing, [ev])
    assert any("not in" in p for p in problems)


def test_non_capable_deflector_refuted(setting):
    graph, routing = setting
    ev = _recorded_trace(graph, routing)[0]
    assert isinstance(ev["as"], int)
    capable = frozenset(graph.nodes()) - {ev["as"]}
    problems = crosscheck_trace(graph, routing, [ev], capable=capable)
    assert any("not MIFO-capable" in p for p in problems)


def test_malformed_record_refuted(setting):
    graph, routing = setting
    problems = crosscheck_trace(
        graph, routing, [{"kind": "deflection", "seq": 0, "as": "five"}]
    )
    assert any("missing int fields" in p for p in problems)


def test_non_deflection_events_ignored(setting):
    graph, routing = setting
    events = [
        {"kind": "encap", "seq": 0, "router": "r1", "peer": "p1"},
        {"kind": "path_switch", "seq": 1, "flow": 3},
    ]
    assert crosscheck_trace(graph, routing, events) == []


def test_gate_raises_on_doctored_trace(setting):
    graph, routing = setting
    ev = dict(_recorded_trace(graph, routing)[0])
    ev["chosen"] = -42
    with pytest.raises(VerificationError, match="disagrees with FIB"):
        post_run_gate(graph, routing, events=[ev])


def test_gate_without_events_unchanged(setting):
    graph, routing = setting
    assert post_run_gate(graph, routing).ok


def test_epoch_tagged_events_skipped_unless_asked(setting):
    # The scenario engine tags its per-event certification trace with an
    # ``epoch`` field; the post-run gate skips those by default (the
    # engine already judged them) and the per-epoch certifier does not.
    graph, routing = setting
    events = _recorded_trace(graph, routing, event_fields={"epoch": 1})
    assert all(e["epoch"] == 1 for e in events)
    doctored = [dict(e, chosen=-42) for e in events]
    assert crosscheck_trace(graph, routing, doctored) == []
    problems = crosscheck_trace(graph, routing, doctored, skip_epoch_tagged=False)
    assert any("not in" in p for p in problems)
