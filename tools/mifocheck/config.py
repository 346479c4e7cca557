"""Analysis configuration for mifocheck.

All the repo-specific knowledge the passes need — which module holds the
checkpoint writer, which classes must be checkpoint-complete, which class
is the pure event stream — is collected
here in one declarative object instead of being spread through the pass
implementations.  The planted-bug fixture corpus under
``tests/tools/fixtures/`` re-points these names at miniature packages to
prove each pass fires; the defaults describe ``src/repro``.
"""

from __future__ import annotations

import dataclasses
import pathlib

__all__ = ["AnalysisConfig", "default_config", "REPO_ROOT"]

#: tools/mifocheck/config.py -> tools/mifocheck -> tools -> repo root
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@dataclasses.dataclass(frozen=True, slots=True)
class AnalysisConfig:
    """Names binding the generic passes to a concrete package."""

    #: directory containing the package to analyze (its child dirs are
    #: top-level packages; ``src`` for the real tree)
    source_root: pathlib.Path
    #: dotted name of the package to load into the program model
    package: str

    # -- MC101 checkpoint completeness ---------------------------------
    #: module holding the checkpoint writer + restore functions
    checkpoint_module: str
    #: function whose attribute *reads* define the captured-state set
    capture_function: str
    #: functions whose attribute *writes* also count as checkpointed
    #: state (restore must write everything capture reads)
    restore_functions: tuple[str, ...]
    #: (module, class) pairs whose instance attributes must all be
    #: captured, declared derivable, or flagged
    checkpoint_targets: tuple[tuple[str, str], ...]

    # -- MC103 stream purity -------------------------------------------
    #: module + class + method defining the pure stream entry point
    stream_module: str
    stream_class: str
    stream_method: str

    # -- MC104 protected-field inference -------------------------------
    #: module holding the slab solver (slab-state markers live there)
    slab_module: str
    slab_class: str
    #: methods allowed to mutate slab state; used for the auto-core
    #: consistency check (subscript stores / np.add.at targets)
    slab_methods: tuple[str, ...]
    #: module + class whose np.ndarray fields define the CSR array set
    topology_module: str
    csr_class: str
    #: path (relative to repo root) of the mifolint core that must
    #: consume — not restate — the derived sets
    mifolint_core: pathlib.Path

    # -- MC103 stream purity, continued --------------------------------
    #: fully qualified FunctionIds (``module:Class.method``) that must
    #: NEVER enter the stream method's call-graph closure — the batching
    #: and flush machinery reads session state, so the pure sampler
    #: calling into it would couple event generation to application
    #: order.  Defaulted (trailing field) so fixture configs built from
    #: explicit field dicts keep working.
    stream_forbidden: tuple[str, ...] = ()

    # -- MC104 protected-field inference, continued --------------------
    #: classes in the topology module derived from the CSR arrays and
    #: shared read-only like them (the pull schedule); their np.ndarray
    #: fields join the CSR array set.
    csr_derived_classes: tuple[str, ...] = ()


def default_config(root: pathlib.Path | None = None) -> AnalysisConfig:
    """The configuration describing the real ``src/repro`` tree."""
    base = root if root is not None else REPO_ROOT
    return AnalysisConfig(
        source_root=base / "src",
        package="repro",
        checkpoint_module="repro.service.checkpoint",
        capture_function="capture",
        restore_functions=("_restore_engine", "_restore_session_state"),
        checkpoint_targets=(
            ("repro.service.session", "ServiceSession"),
            ("repro.service.stream", "EventStream"),
            ("repro.scenario.engine", "ScenarioEngine"),
            ("repro.scenario.engine", "_SimFlow"),
            ("repro.scenario.incremental", "IncrementalRouting"),
            ("repro.flowsim.incremental", "IncrementalMaxMin"),
            ("repro.measure.rtt", "PathRttMonitor"),
            ("repro.measure.changepoint", "OnlineDetector"),
        ),
        stream_module="repro.service.stream",
        stream_class="EventStream",
        stream_method="event_at",
        stream_forbidden=(
            "repro.service.session:ServiceSession._flush",
            "repro.service.session:ServiceSession._apply",
            "repro.service.stream:BatchTick.apply",
            "repro.service.stream:merge_effects",
        ),
        slab_module="repro.flowsim.incremental",
        slab_class="IncrementalMaxMin",
        slab_methods=("_intern", "seed_free_segments", "add_flow", "remove_flow"),
        topology_module="repro.topology.asgraph",
        csr_class="CsrAdjacency",
        csr_derived_classes=("PullSchedule",),
        mifolint_core=base / "tools" / "mifolint" / "core.py",
    )
