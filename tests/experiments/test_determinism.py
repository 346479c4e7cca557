"""Cross-backend determinism: the byte-identical guarantee, end to end.

The routing backends already cross-validate query by query
(``tests/bgp/test_array_routing.py``); this suite asserts the stronger,
user-visible property the parallel redesign promised: a **full experiment
run** produces byte-identical ``ExperimentResult.to_json()`` no matter
which backend (dict vs array) computed the routes, and repeated runs on
one backend are byte-identical too.

``SharedContext`` memoizes per (scale, backend), so each invocation below
clears the memo to force a genuinely fresh topology + cache + engine.
"""

import pytest

from repro.experiments import fig5, fig7, fig8
from repro.experiments.common import SharedContext


@pytest.fixture(autouse=True)
def fresh_contexts():
    """Isolate every test from previously memoized contexts."""
    saved = dict(SharedContext._cache)
    SharedContext._cache.clear()
    yield
    SharedContext._cache.clear()
    SharedContext._cache.update(saved)


def _run_json(mod, backend: str, workers: int) -> str:
    SharedContext._cache.clear()
    result = mod.run("test", backend=backend, workers=workers)
    # Provenance meta (the backend label, cache hit counters) records how
    # the result was computed and legitimately differs across backends;
    # everything else must be byte-identical.
    return result.to_json(include_provenance=False)


class TestCrossBackendDeterminism:
    @pytest.mark.parametrize("mod", [fig7, fig8], ids=lambda m: m.__name__)
    def test_serial_dict_equals_parallel_array(self, mod):
        serial = _run_json(mod, "dict", 1)
        parallel = _run_json(mod, "array", 2)
        assert serial == parallel

    def test_fig5_dict_equals_array(self):
        # fig5 is the heaviest figure at test scale; serial array keeps
        # the cross-substrate assertion without the pool overhead (the
        # worker-count invariance is covered by tests/bgp/test_parallel).
        assert _run_json(fig5, "dict", 1) == _run_json(fig5, "array", 1)

    def test_persistent_pool_equals_serial_dict(self):
        # The strongest cross-substrate claim: a full experiment routed
        # through the standing shared-memory pool — and provably through
        # it, the pool is still up afterwards — is byte-identical to the
        # serial dict oracle.
        serial = _run_json(fig7, "dict", 1)
        SharedContext._cache.clear()
        try:
            result = fig7.run("test", backend="array", workers=2)
            ctx = SharedContext.get("test", backend="array", workers=2)
            assert ctx.engine.pool_live
            pooled = result.to_json(include_provenance=False)
        finally:
            SharedContext.close_all()
        assert serial == pooled


class TestRepeatDeterminism:
    @pytest.mark.parametrize("backend", ["dict", "array"])
    def test_same_backend_twice_is_byte_identical(self, backend):
        assert _run_json(fig7, backend, 1) == _run_json(fig7, backend, 1)
