"""Machine-readable verdicts of the static forwarding-state verifier.

A check either **proves** its invariant (no findings) or **refutes** it
with one :class:`Finding` per violation, each carrying a concrete
counterexample path — the artifact an operator (or a failing CI job) needs
to see which tables are broken and how a packet would exercise the break.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

__all__ = ["CHECKS", "Finding", "VerificationReport"]

#: The three invariants, in the order they are checked.
CHECKS: tuple[str, ...] = ("fib-rib-consistency", "valley-freedom", "loop-freedom")


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """One refuted invariant, with its counterexample.

    ``path`` is an AS-level walk witnessing the violation: for a loop it
    is a stem from some traffic source followed by the repeating cycle
    (``cycle_start`` indexes the first repeated AS); for a valley it ends
    with the hop that violates Eq. 3; for a consistency error it is the
    ``(owner, next_hop)`` pair of the dangling entry.
    """

    check: str
    dest: int
    path: tuple[int, ...]
    detail: str
    cycle_start: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict of this finding."""
        d: dict[str, Any] = {
            "check": self.check,
            "dest": self.dest,
            "path": list(self.path),
            "detail": self.detail,
        }
        if self.cycle_start is not None:
            d["cycle_start"] = self.cycle_start
        return d


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying one :class:`~repro.verify.state.ForwardingState`.

    ``ok`` means every check proved its invariant for every destination.
    ``n_states``/``n_edges`` size the explored tagged deflection relation
    (the same numbers whether the walk or the array certificate counted
    them), and ``elapsed_s`` is the verifier's own cost.
    """

    ok: bool
    findings: tuple[Finding, ...]
    n_destinations: int
    n_states: int
    n_edges: int
    tag_check_enabled: bool
    elapsed_s: float

    def findings_for(self, check: str) -> tuple[Finding, ...]:
        """Findings produced by one named check."""
        return tuple(f for f in self.findings if f.check == check)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict of the whole report."""
        return {
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "n_destinations": self.n_destinations,
            "n_states": self.n_states,
            "n_edges": self.n_edges,
            "tag_check_enabled": self.tag_check_enabled,
            "elapsed_s": self.elapsed_s,
        }

    def to_json(self, *, indent: int | None = None) -> str:
        """JSON string of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Human-readable summary (the CLI prints this)."""
        head = "PROVED" if self.ok else "REFUTED"
        lines = [
            f"{head}: {self.n_destinations} destination(s), "
            f"{self.n_states} states, {self.n_edges} edges, "
            f"tag-check {'on' if self.tag_check_enabled else 'off'}, "
            f"{self.elapsed_s:.3f}s"
        ]
        for check in CHECKS:
            found = self.findings_for(check)
            if not found:
                lines.append(f"  {check:20s} proved")
                continue
            lines.append(f"  {check:20s} REFUTED ({len(found)} finding(s))")
            for f in found[:5]:
                walk = " -> ".join(map(str, f.path))
                lines.append(f"    dest {f.dest}: {walk}")
                lines.append(f"      {f.detail}")
            if len(found) > 5:
                lines.append(f"    ... {len(found) - 5} more")
        return "\n".join(lines)
