"""The static checks: prove or refute MIFO's forwarding invariants.

The object analyzed is the **tagged deflection relation** — for one
destination, a finite directed graph over states ``(AS, tag bit)`` where
the bit is the paper's one-bit Tag (Section III-A4): ``True`` iff the
packet entered this AS from a customer (or originated locally).  Each
state has at most one *default* edge (the FIB next hop, always available
— a congested default with no usable alternative still forwards on the
default) and, when the AS is MIFO-capable, one *deflect* edge per
non-default Adj-RIB-In neighbor that Tag-Check admits.  Congestion is
treated adversarially: any deflect edge may be taken, so the relation
over-approximates every congestion pattern at once — proofs over it hold
for *all* dynamic executions.

Three invariants, checked per destination:

* **fib-rib-consistency** — every FIB next hop is a graph neighbor and is
  backed by an Adj-RIB-In entry, and every RIB entry names a real
  neighbor with the true business relationship (a lied-about relationship
  would let Tag-Check admit a valley);
* **valley-freedom** — every edge *reachable from a traffic source*
  satisfies Eq. 3 (``check_bit``: bit set or downstream is a customer).
  Per-hop Eq. 3 along a walk is equivalent to the global
  ``up* peer? down*`` valley-free shape, which is exactly the paper's
  "one more bit is enough" argument;
* **loop-freedom** — the reachable part of the relation is acyclic.  The
  dynamic walk's choices are a subset of the relation's edges, so
  acyclicity here implies no packet can revisit a forwarding state
  (Theorem 1 made static).  A cycle is reported with its stem from a
  source, mirroring the packet that would spin.

Counterexamples are concrete AS walks (see
:class:`~repro.verify.report.Finding`), which is what the adversarial
test configurations assert on.

Two deciders, one report.  The walk below (:class:`_DestinationChecker`)
handles any snapshot — hand-built adversarial tables, dict-backend
views, Tag-Check disabled — and is the only one that ever *refutes*.
:func:`verify_routing` first puts array-backend state to the block
certificate of :mod:`repro.verify.certificate`, which decides the same
three invariants with masked array comparisons and proves loop-freedom
by a potential instead of a search; it answers "certified" or "don't
know", and every destination it does not certify is snapshotted and
walked here.  Either way the report is field-for-field the walk's.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from collections.abc import Iterable, Iterator

import numpy as np

from .. import telemetry as tm
from ..bgp.array_routing import ArrayDestinationRouting, block_dests
from ..mifo.tag import check_bit
from ..telemetry import Stopwatch
from ..topology.asgraph import ASGraph
from ..topology.relationships import Relationship
from .certificate import certify_block
from .report import Finding, VerificationReport
from .state import DestinationState, ForwardingState, RoutingFn

__all__ = ["verify_forwarding_state", "verify_routing"]

#: One state of the tagged deflection relation: (AS number, tag bit).
State = tuple[int, bool]


def _entry_bit(rel_of_next_seen_from_here: Relationship) -> bool:
    """Tag bit after traversing a link whose far end has this relationship.

    The next AS sees us as a customer exactly when we see it as a
    provider — that is the ``V_{i-1} < V_i`` case that sets the bit.
    """
    return rel_of_next_seen_from_here is Relationship.PROVIDER


class _DestinationChecker:
    """Runs all three checks for one destination's tables."""

    def __init__(self, fs: ForwardingState, table: DestinationState) -> None:
        self.fs = fs
        self.graph = fs.graph
        self.table = table
        self.dest = table.dest
        self.findings: list[Finding] = []
        #: states discovered by the reachability pass, with BFS parents
        #: for counterexample reconstruction (origins map to None).
        self._parent: dict[State, State | None] = {}
        self.n_edges = 0

    # ------------------------------------------------------------------
    # the relation
    # ------------------------------------------------------------------
    def successors(self, u: int, bit: bool) -> Iterator[tuple[int, bool, str]]:
        """Edges out of state ``(u, bit)`` as ``(next AS, next bit, kind)``.

        Enumeration order is deterministic: the default edge first, then
        deflect edges in RIB preference order.  Entries the consistency
        check already flagged (non-adjacent neighbors) are skipped so one
        broken table does not cascade into spurious findings.
        """
        if u == self.dest:
            return
        graph = self.graph
        nh = self.table.fib.get(u)
        if nh is not None and graph.are_adjacent(u, nh):
            yield nh, _entry_bit(graph.relationship(u, nh)), "default"
        if u not in self.fs.capable:
            return
        for entry in self.table.rib.get(u, ()):
            v = entry.neighbor
            if v == nh or not graph.are_adjacent(u, v):
                continue
            rel = graph.relationship(u, v)
            if self.fs.tag_check_enabled and not check_bit(bit, rel):
                continue
            yield v, _entry_bit(rel), "deflect"

    def _walk_to(self, state: State) -> list[int]:
        """AS path from the origin of ``state``'s BFS tree to ``state``."""
        hops: list[int] = []
        cur: State | None = state
        while cur is not None:
            hops.append(cur[0])
            cur = self._parent[cur]
        hops.reverse()
        return hops

    # ------------------------------------------------------------------
    # check 1: FIB/RIB consistency
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Prove every FIB entry is backed by the RIB state."""
        graph = self.graph
        table = self.table
        for u in sorted(table.fib):
            nh = table.fib[u]
            if u == self.dest:
                self._finding(
                    "fib-rib-consistency", (u, nh),
                    f"destination AS {u} must not hold a FIB entry toward itself",
                )
                continue
            if not graph.are_adjacent(u, nh):
                self._finding(
                    "fib-rib-consistency", (u, nh),
                    f"FIB next hop {nh} of AS {u} is not a neighbor in the AS graph",
                )
                continue
            backing = [e for e in table.rib.get(u, ()) if e.neighbor == nh]
            if not backing:
                self._finding(
                    "fib-rib-consistency", (u, nh),
                    f"dangling FIB entry: next hop {nh} of AS {u} is backed by "
                    f"no Adj-RIB-In route",
                )
        for u in sorted(table.rib):
            for entry in table.rib[u]:
                v = entry.neighbor
                if not graph.are_adjacent(u, v):
                    self._finding(
                        "fib-rib-consistency", (u, v),
                        f"Adj-RIB-In of AS {u} names {v}, not a neighbor in the "
                        f"AS graph",
                    )
                    continue
                true_rel = graph.relationship(u, v)
                if entry.relationship is not true_rel:
                    self._finding(
                        "fib-rib-consistency", (u, v),
                        f"Adj-RIB-In of AS {u} records neighbor {v} as "
                        f"{entry.relationship.name} but the AS graph says "
                        f"{true_rel.name}",
                    )

    # ------------------------------------------------------------------
    # check 2: reachability + valley-freedom (one BFS does both)
    # ------------------------------------------------------------------
    def check_valley_freedom(self) -> None:
        """BFS the relation from every traffic source; Eq. 3 every edge.

        Sources enter with the bit set (a locally originated packet may
        take its first step in any direction).  Violating edges are still
        traversed — with Tag-Check disabled the data plane would forward
        through the valley, and downstream states must be explored for
        the loop check to be sound.
        """
        parent = self._parent
        queue: deque[State] = deque()
        for u in sorted(self.table.fib):
            if u == self.dest:
                continue
            origin: State = (u, True)
            if origin not in parent:
                parent[origin] = None
                queue.append(origin)
        seen_violations: set[tuple[int, bool, int]] = set()
        while queue:
            u, bit = queue.popleft()
            for v, nbit, kind in self.successors(u, bit):
                self.n_edges += 1
                rel = self.graph.relationship(u, v)
                if not check_bit(bit, rel) and (u, bit, v) not in seen_violations:
                    seen_violations.add((u, bit, v))
                    path = self._walk_to((u, bit)) + [v]
                    upstream = "origin" if len(path) == 2 else "non-customer"
                    self._finding(
                        "valley-freedom", tuple(path),
                        f"valley at AS {u}: packet arrived from a {upstream} "
                        f"neighbor (tag bit 0) yet {kind} forwarding continues "
                        f"to {rel.name.lower()} {v} — Eq. 3 violated",
                    )
                nxt: State = (v, nbit)
                if nxt not in parent:
                    parent[nxt] = (u, bit)
                    queue.append(nxt)

    # ------------------------------------------------------------------
    # check 3: loop-freedom
    # ------------------------------------------------------------------
    def check_loop_freedom(self) -> None:
        """DFS the reachable relation for a cycle; report stem + cycle.

        One counterexample per destination is enough to refute — after
        the first cycle the search stops rather than enumerating every
        rotation of the same loop.
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color: dict[State, int] = {}
        for root in self._parent:
            if self._parent[root] is not None or color.get(root, WHITE) != WHITE:
                continue
            stack: list[tuple[State, Iterator[tuple[int, bool, str]]]] = [
                (root, self.successors(*root))
            ]
            color[root] = GRAY
            onstack: list[State] = [root]
            while stack:
                state, it = stack[-1]
                advanced = False
                for v, nbit, _kind in it:
                    nxt: State = (v, nbit)
                    c = color.get(nxt, WHITE)
                    if c == GRAY:
                        cycle_states = onstack[onstack.index(nxt):] + [nxt]
                        stem = self._walk_to(nxt)
                        path = stem + [s[0] for s in cycle_states[1:]]
                        self._finding(
                            "loop-freedom", tuple(path),
                            f"forwarding cycle of {len(cycle_states) - 1} "
                            f"hop(s) reachable from AS {stem[0]}: "
                            + " -> ".join(str(s[0]) for s in cycle_states),
                            cycle_start=len(stem) - 1,
                        )
                        return
                    if c == WHITE:
                        color[nxt] = GRAY
                        onstack.append(nxt)
                        stack.append((nxt, self.successors(*nxt)))
                        advanced = True
                        break
                if not advanced:
                    color[state] = BLACK
                    onstack.pop()
                    stack.pop()

    # ------------------------------------------------------------------
    def _finding(
        self,
        check: str,
        path: tuple[int, ...],
        detail: str,
        *,
        cycle_start: int | None = None,
    ) -> None:
        self.findings.append(
            Finding(
                check=check,
                dest=self.dest,
                path=tuple(path),
                detail=detail,
                cycle_start=cycle_start,
            )
        )

    def run(self) -> None:
        """Run all three static checks in order."""
        self.check_consistency()
        self.check_valley_freedom()
        self.check_loop_freedom()

    @property
    def n_states(self) -> int:
        """States explored by the loop-freedom search."""
        return len(self._parent)


def verify_forwarding_state(fs: ForwardingState) -> VerificationReport:
    """Run every check on every destination table of a snapshot."""
    watch = Stopwatch()
    findings: list[Finding] = []
    n_states = 0
    n_edges = 0
    for table in fs.tables:
        checker = _DestinationChecker(fs, table)
        checker.run()
        findings.extend(checker.findings)
        n_states += checker.n_states
        n_edges += checker.n_edges
    return VerificationReport(
        ok=not findings,
        findings=tuple(findings),
        n_destinations=len(fs.tables),
        n_states=n_states,
        n_edges=n_edges,
        tag_check_enabled=fs.tag_check_enabled,
        elapsed_s=watch.elapsed,
    )


def verify_routing(
    graph: ASGraph,
    routing: RoutingFn,
    dests: Iterable[int],
    *,
    capable: frozenset[int] | None = None,
    tag_check_enabled: bool = True,
) -> VerificationReport:
    """Snapshot live control-plane state and verify it in one call.

    Array-backend state is first put to the block certificate
    (:func:`_certify_views`); every destination it does not certify is
    snapshotted and walked by :class:`_DestinationChecker`, so the report
    — findings, their order, ``n_states``/``n_edges`` — does not depend
    on which of the two proved a destination.  With telemetry on,
    ``verify.dests_certified`` / ``verify.dests_fallback`` say which did.
    ``elapsed_s`` is the time spent proving, not fetching views or
    snapshotting them.
    """
    unique = list(dict.fromkeys(sorted(dests)))
    views: dict[int, object] = {}
    proved: dict[int, tuple[int, int]] = {}
    certify_s = 0.0
    if tag_check_enabled and graph.frozen:
        for dest in unique:
            try:
                views[dest] = routing(dest)
            except Exception:
                # Not the certificate's to report: the snapshot below asks
                # again and raises it in its own order, after any error an
                # earlier destination's tables hold.
                break
        watch = Stopwatch()
        proved = _certify_views(graph, views, capable)
        certify_s = watch.elapsed
    rest = [dest for dest in unique if dest not in proved]
    tm.inc("verify.dests_certified", len(proved))
    tm.inc("verify.dests_fallback", len(rest))

    def view_of(dest: int) -> object:
        return views[dest] if dest in views else routing(dest)

    walked = verify_forwarding_state(
        ForwardingState.from_routing(
            graph,
            view_of,
            rest,
            capable=capable,
            tag_check_enabled=tag_check_enabled,
        )
    )
    return dataclasses.replace(
        walked,
        n_destinations=len(unique),
        n_states=walked.n_states + sum(s for s, _ in proved.values()),
        n_edges=walked.n_edges + sum(e for _, e in proved.values()),
        elapsed_s=certify_s + walked.elapsed_s,
    )


def _certify_views(
    graph: ASGraph, views: dict[int, object], capable: frozenset[int] | None
) -> dict[int, tuple[int, int]]:
    """``{dest: (n_states, n_edges)}`` of the views the block certificate
    proves: :class:`ArrayDestinationRouting` views of their own
    destination, bound to ``graph``'s CSR, ``block_dests(n)`` at a time.
    """
    n = len(graph)
    blockable: list[ArrayDestinationRouting] = []
    for dest, view in views.items():
        if (
            type(view) is ArrayDestinationRouting
            and view.dest == dest
            # a view of ``graph`` built its CSR, so asking builds nothing
            and view.graph is graph
            and view.csr is graph.csr()
            and all(
                isinstance(a, np.ndarray) and a.shape == (n,) and a.dtype.kind == "i"
                for a in view.state()
            )
        ):
            blockable.append(view)
    if not blockable:
        return {}
    csr = graph.csr()
    if capable is None:
        capable_mask = np.ones(n, dtype=bool)
    else:
        capable_mask = np.isin(csr.asns, np.fromiter(capable, np.int64, len(capable)))
    proved: dict[int, tuple[int, int]] = {}
    width = block_dests(n)
    for lo in range(0, len(blockable), width):
        block = blockable[lo : lo + width]
        certified, n_states, n_edges = certify_block(
            csr,
            np.array([csr.index[view.dest] for view in block], dtype=np.int64),
            tuple(np.stack(rows) for rows in zip(*(view.state() for view in block))),
            capable_mask,
        )
        for view, good, states, edges in zip(
            block, certified.tolist(), n_states.tolist(), n_edges.tolist()
        ):
            if good:
                proved[view.dest] = (states, edges)
    return proved
