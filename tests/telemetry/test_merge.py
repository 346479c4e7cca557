"""Property test for snapshot subtraction: the delta of two snapshots of
one registry is exactly what was recorded in between (how a
``TelemetrySession`` attributes a shared registry to one run)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import Telemetry


@settings(max_examples=50)
@given(
    st.lists(st.tuples(st.sampled_from(["x", "y"]), st.integers(1, 5)), max_size=8)
)
def test_subtract_recovers_session_delta(incs):
    t = Telemetry()
    t.inc("x", 3)  # pre-session noise
    base = t.snapshot()
    for name, n in incs:
        t.inc(name, n)
    delta = t.snapshot().subtract(base)
    want: dict[str, int] = {}
    for name, n in incs:
        want[name] = want.get(name, 0) + n
    assert delta.counters == {k: v for k, v in want.items() if v}
