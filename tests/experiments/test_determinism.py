"""Cross-backend determinism: the byte-identical guarantee, end to end.

The routing backends already cross-validate query by query
(``tests/bgp/test_array_routing.py``); this suite asserts the stronger,
user-visible property: a **full experiment run** produces byte-identical
``ExperimentResult.to_json()`` no matter which backend (dict vs array)
computed the routes, and repeated runs on one backend are byte-identical
too.

``SharedContext`` memoizes per (scale, backend), so each invocation below
clears the memo to force a genuinely fresh topology + cache.
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


def _run_json(mod, backend: str) -> str:
    SharedContext._cache.clear()
    result = mod.run("test", backend=backend)
    # Provenance meta (the backend label, cache hit counters) records how
    # the result was computed and legitimately differs across backends;
    # everything else must be byte-identical.
    return result.to_json(include_provenance=False)


class TestCrossBackendDeterminism:
    @pytest.mark.parametrize("mod", [fig7, fig8], ids=lambda m: m.__name__)
    def test_dict_equals_array(self, mod):
        assert _run_json(mod, "dict") == _run_json(mod, "array")

    def test_fig5_dict_equals_array(self):
        # fig5 is the heaviest figure at test scale, so it runs once here
        # rather than in the parametrized sweep above.
        assert _run_json(fig5, "dict") == _run_json(fig5, "array")


class TestRepeatDeterminism:
    @pytest.mark.parametrize("backend", ["dict", "array"])
    def test_same_backend_twice_is_byte_identical(self, backend):
        assert _run_json(fig7, backend) == _run_json(fig7, backend)
