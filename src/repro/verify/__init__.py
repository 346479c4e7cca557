"""Static forwarding-state verification (paper Theorem 1, proved offline).

Given a frozen AS graph, per-destination FIBs and Adj-RIB-Ins, and the
MIFO deflection configuration, this package constructs the tagged
deflection relation and statically proves — or refutes with concrete
counterexample paths — (a) loop-freedom under Tag-Check, (b) valley-free
compliance of every reachable forwarding path, and (c) FIB/RIB
consistency.  See :mod:`repro.verify.checker` for the formal setup.

Array-backend routing state is proved without materialising any table:
:mod:`repro.verify.certificate` evaluates the same three invariants over
the kernel's ``(B, n)`` arrays, a block of destinations at a time, and
hands whatever it cannot certify to the checker's walk — the refuter
and the oracle the certificate is tested against.

Entry points: ``mifo-repro verify`` on the CLI,
:func:`~repro.verify.gate.post_run_gate` as the experiments' post-run
invariant gate, and :func:`verify_forwarding_state` /
:func:`verify_routing` for library callers.
"""

from .checker import verify_forwarding_state, verify_routing
from .gate import post_run_gate, verify_cache
from .report import CHECKS, Finding, VerificationReport
from .state import DestinationState, ForwardingState

__all__ = [
    "CHECKS",
    "DestinationState",
    "Finding",
    "ForwardingState",
    "VerificationReport",
    "post_run_gate",
    "verify_cache",
    "verify_forwarding_state",
    "verify_routing",
]
