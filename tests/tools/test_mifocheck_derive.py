"""Tests for the derived protected-field sets (MC104 substrate).

mifolint's MF003 protection sets must be *derived from the source* —
capture/restore for service state, slab-state markers for the solver
slab, ``np.ndarray`` annotations for the CSR arrays — and mifolint must
consume those derived sets rather than restating them by hand.
"""

from __future__ import annotations

import pathlib

from tools.mifocheck.derive import (
    checkpointed_state_fields,
    csr_array_fields,
    slab_state_fields,
)
from tools.mifocheck.passes.mc104 import _mifolint_literals
from tools.mifolint import core as lint_core

REPO = pathlib.Path(__file__).resolve().parents[2]


class TestDerivedSets:
    def test_checkpointed_fields_include_the_core_session_state(self):
        fields = checkpointed_state_fields()
        assert fields, "derived checkpointed-state set must not be empty"
        assert {"_flows", "_tick", "_stream_index"} <= set(fields)

    def test_checkpointed_fields_include_the_detector_state(self):
        fields = set(checkpointed_state_fields())
        assert {
            "_rtt_series",
            "_rtt_samples_total",
            "_rtt_alarms_total",
            "_cp_values",
            "_cp_epochs",
            "_cp_base",
            "_cp_count",
            "_cp_last",
            "_cp_streak",
            "_cp_baseline",
        } <= fields

    def test_slab_fields_cover_the_pool_arrays(self):
        fields = slab_state_fields()
        assert fields, "derived slab set must not be empty"
        assert {"_slab_rows", "_slab_cols", "_col_start", "_col_len"} <= set(fields)

    def test_csr_fields_nonempty(self):
        fields = csr_array_fields()
        assert fields, "derived CSR set must not be empty"
        # the adjacency itself and the pull schedule derived from it
        assert {"prov_indptr", "prov_indices", "slot_of", "level_starts"} <= fields
        assert all(name.startswith("_") or name.isidentifier() for name in fields)

    def test_every_derived_field_is_a_private_identifier_or_array(self):
        for fields in (checkpointed_state_fields(), slab_state_fields()):
            assert all(name.startswith("_") for name in fields)

    def test_mifolint_consumes_the_derived_sets(self):
        assert lint_core.SERVICE_STATE_FIELDS == checkpointed_state_fields()
        assert lint_core.SLAB_FIELDS == slab_state_fields()
        assert lint_core.CSR_FIELDS == csr_array_fields()

    def test_no_hand_maintained_literals_remain_in_mifolint(self):
        core_path = REPO / "tools" / "mifolint" / "core.py"
        assert _mifolint_literals(core_path) == {}
        text = core_path.read_text(encoding="utf-8")
        assert "from ..mifocheck.derive import" in text
