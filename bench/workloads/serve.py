"""The two ``ServiceSession`` workloads.

``serve_default`` — the CLI-default operator session (300 ASes, every knob of
``ServiceConfig()`` left alone, ``batch_max=1``), one ``step()`` an
operation.  The benchmark generates the events and feeds them in: flow
arrivals come from the program's own ``EventStream`` (Zipf sources, the
default lifetimes), and every block of 50 events carries exactly one
``LinkFlap`` and one ``CapacityJitter`` — the default 2 % + 2 % mix, made
exact.  Flaps alternate fail / recover and their victims are seeded draws
over the provider–customer links, the flaps that re-converge every cached
destination (~90 ms against a 1.8 ms arrival), so ``lat_tail_ms`` (p99) *is* flap
re-convergence and ``lat_p50_ms`` an arrival.  (With the stream's own
Bernoulli mix the share of heavy flaps sits at the 99th percentile's edge,
and p99 jumps between 14 ms and 100 ms from seed to seed.)

``serve_small_batched`` — the smallest-packet case: 120 ASes, ~8 live flows,
``batch_max=64``, arrivals from the program's generated stream at the
existing soak mix, one ``drain(64)`` an operation, and ``save_checkpoint`` +
``restore`` + continue on the restored session at the end of every round of
9,600 events.  The soak mix's flaps and jitters are fed in at an exact cadence
too — one provider-customer flap and one jitter per block of 50 drains
(3,200 events) — because drawn ones made throughput swing 15 % from seed to
seed (Poisson counts of a 30 ms event among 0.1 ms ones).  One drain in 50,
as one step in 50 on ``serve_default``, puts the 99th percentile on the
*median* flap drain; at one in 16 it sat on the flaps' 84th percentile, which
read 28 to 39 ms from seed to seed while their median stayed at 28.  The
service loop, ``EventStream``, batching and the checkpoint codec carry most
of the time.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
from time import perf_counter_ns

import numpy as np

from bench.harness import OUT_DIR, Check, digest
from bench.workloads import PROG_SPANS, TOPOLOGY_SEED, ratio, setup_layers
from repro.service import (
    CapacityJitter,
    EventStream,
    FlowArrival,
    LinkFlap,
    ServiceConfig,
    ServiceSession,
)
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.relationships import Relationship

#: events both sessions advance by before the check compares them.
N_CHECK_EVENTS = 200
#: save + restore repetitions of the ``serve_default`` checkpoint probe.
N_CHECKPOINT_PROBE = 5


def _records(session) -> list[tuple]:
    return [dataclasses.astuple(row) for row in session.engine.records]


def check_restore(session, checkpoint_text: str, advance) -> list[str]:
    """Restore ``checkpoint_text``, advance both sessions alike, and require
    byte-equal checkpoints — the restore-then-replay contract."""
    try:
        restored = ServiceSession.restore(json.loads(checkpoint_text))
        advance(restored)
    except Exception as exc:  # a checkpoint the codec rejects is a failed check
        return [f"restore failed: {exc!r}"]
    advance(session)
    if restored.checkpoint_json() != session.checkpoint_json():
        return ["restored session diverged from the original after replay"]
    return []


class _Serve:
    """What the two service workloads share: span bookkeeping and layers."""

    setup_reps = 5

    def _init_common(self, tr) -> None:
        self.traced = tr.enabled
        self.kinds: list[str] = []
        self.first_records: list[tuple] = []
        self.save_ns: list[int] = []
        self.restore_ns: list[int] = []
        self.checkpoint_bytes = 0
        os.makedirs(OUT_DIR, exist_ok=True)
        self.checkpoint_path = os.path.join(OUT_DIR, f"checkpoint-{os.getpid()}.json")

    def _mark_baseline(self) -> None:
        """End of set-up: counters from here on belong to the timed loop."""
        telemetry = self.session.telemetry
        self.base_counters = dict(telemetry.counters) if telemetry is not None else {}
        #: program span totals of sessions already replaced by a restore,
        #: starting at minus the set-up's share.
        self.prog_s = {name: -total for name, total in self._session_spans().items()}

    def _session_spans(self) -> dict[str, float]:
        if self.session.telemetry is None:
            return dict.fromkeys(PROG_SPANS, 0.0)
        spans = self.session.telemetry.snapshot().spans
        return {name: spans.get(name, (0.0, 0))[0] for name in PROG_SPANS}

    def _retire_session_spans(self) -> None:
        for name, total in self._session_spans().items():
            self.prog_s[name] += total

    def _save_restore(self, tr) -> None:
        """Checkpoint to disk, restore, and carry on with the restored session."""
        t0 = perf_counter_ns()
        with tr.span("service.checkpoint_save", "service"):
            self.session.save_checkpoint(self.checkpoint_path)
        t1 = perf_counter_ns()
        self._retire_session_spans()
        with tr.span("service.restore", "service"):
            self.session = ServiceSession.restore(self.checkpoint_path)
        self.save_ns.append(t1 - t0)
        self.restore_ns.append(perf_counter_ns() - t1)
        self.checkpoint_bytes = os.path.getsize(self.checkpoint_path)

    def _cleanup(self) -> None:
        if os.path.exists(self.checkpoint_path):
            os.remove(self.checkpoint_path)

    def layers(self, tr, rec) -> dict[str, float]:
        self._probe(tr)
        self._retire_session_spans()
        self._cleanup()
        lat_ms = {"link_flap": [], "arrival": []}
        for kind, ns in zip(self.kinds, rec.lat_ns):
            if kind in lat_ms:
                lat_ms[kind].append(ns / 1e6)
        now = self.session.telemetry.counters
        counters = {name: value - self.base_counters.get(name, 0) for name, value in now.items()}
        step_s = sum(rec.lat_ns) / 1e9
        flushes = counters.get("service.batch_solves", 0)
        out = setup_layers(tr, self.session.engine.graph)
        out.update({f"prog.{name}_s": total for name, total in self.prog_s.items()})
        out.update(
            {
                "bgp.dests_converged": counters.get("bgp.destinations_converged", 0),
                "mifo.deflections": counters.get("mifo.deflections", 0),
                "flowsim.maxmin_iterations": counters.get("flowsim.maxmin_iterations", 0),
                "flowsim.pool_hits": counters.get("flowsim.pool_hits", 0),
                "flowsim.cols_reused": counters.get("flowsim.cols_reused", 0),
                "flowsim.warm_solves": counters.get("flowsim.warm_solves", 0),
                "flowsim.warm_hits": counters.get("flowsim.warm_hits", 0),
                "scenario.epochs": counters.get("scenario.events", 0),
                "scenario.dests_recomputed": counters.get("scenario.dests_recomputed", 0),
                "scenario.dests_rebased": counters.get("scenario.dests_rebased", 0),
                "scenario.rebase_ratio": ratio(
                    counters.get("scenario.dests_rebased", 0),
                    counters.get("scenario.dests_rebased", 0)
                    + counters.get("scenario.dests_recomputed", 0),
                ),
                "service.step_s": step_s,
                "service.events": rec.units,
                "service.flaps": self.flaps,
                "service.flap_p50_ms": statistics.median(lat_ms["link_flap"] or [0.0]),
                "service.arrival_p50_ms": statistics.median(lat_ms["arrival"] or [0.0]),
                "service.live_flows": self.session.snapshot()["flows_live"],
                "service.flushes": flushes,
                "service.events_per_flush": ratio(
                    counters.get("service.batched_events", 0), flushes
                ),
                "service.us_per_event": ratio(step_s * 1e6, rec.units),
                "service.checkpoint_save_ms": statistics.median(self.save_ns or [0]) / 1e6,
                "service.checkpoint_bytes": self.checkpoint_bytes,
                "service.restore_ms": statistics.median(self.restore_ns or [0]) / 1e6,
            }
        )
        return out

    def _probe(self, tr) -> None:
        """Extra layer probes of a traced pass (none by default)."""


class ServeDefault(_Serve):
    name = "serve_default"
    unit = "events/s"
    why = (
        "the CLI-default 300-AS session, one step() per event, exact 2%+2% flap/jitter mix: "
        "every layer a little; lat_tail (p99) is flap re-convergence, lat_p50 an arrival"
    )
    sizes = {
        "full": {"n_ases": 300, "block": 50, "warmup_blocks": 6, "blocks_per_second": 12,
                 "rounds": 45},
        "smoke": {"n_ases": 120, "block": 50, "warmup_blocks": 2, "blocks_per_second": 12,
                  "rounds": 2},
    }

    def __init__(self, seed: int, size: dict, tr) -> None:
        self._init_common(tr)
        config = ServiceConfig(seed=seed)
        topology = TopologyConfig(n_ases=size["n_ases"], seed=TOPOLOGY_SEED)
        with tr.span("topology.build", "topology"):
            graph = generate_topology(topology)
        n_timed = max(8, int(size["seconds"] * size["blocks_per_second"]))
        n_check = -(-N_CHECK_EVENTS // size["block"])
        with tr.span("traffic.matrix", "traffic"):
            blocks = make_blocks(
                graph, config, seed, size["block"], size["warmup_blocks"] + n_timed + n_check
            )
        warmup = blocks[: size["warmup_blocks"]]
        self.blocks = blocks[size["warmup_blocks"] : size["warmup_blocks"] + n_timed]
        self.check_blocks = blocks[size["warmup_blocks"] + n_timed :]
        self.max_rounds = len(self.blocks)
        with tr.span("service.bootstrap", "service"):
            self.session = ServiceSession(
                config, topology=topology, backend="array", telemetry=self.traced or None
            )
            for block in warmup:
                self._play(self.session, block)
        self._mark_baseline()
        self.flaps = 0

    @staticmethod
    def _play(session, block) -> None:
        for dt, event in block:
            session.feed(event, dt=dt)
            session.step()

    def round(self, r: int, rec, tr) -> None:
        session = self.session
        lat, kinds = rec.lat_ns, self.kinds
        for dt, event in self.blocks[r]:
            session.feed(event, dt=dt)
            t0 = perf_counter_ns()
            with tr.span("service.step", "service"):
                record = session.step()
            lat.append(perf_counter_ns() - t0)
            if self.traced:
                kinds.append(record.kind)
        rec.units += len(self.blocks[r])
        self.flaps += 1
        if r == 0:
            self.first_records = _records(session)[-len(self.blocks[0]) :]

    def check(self) -> Check:
        def advance(session) -> None:
            for block in self.check_blocks:
                self._play(session, block)

        failures = check_restore(self.session, self.session.checkpoint_json(), advance)
        return Check(1, failures, digest(self.first_records))

    def _probe(self, tr) -> None:
        with tr.span("bench.probe", "bench"):
            for _ in range(N_CHECKPOINT_PROBE):
                self._save_restore(tr)


class ServeSmallBatched(_Serve):
    name = "serve_small_batched"
    unit = "events/s"
    why = (
        "120 ASes, ~8 live flows, batch_max=64 with checkpoint+restore every 9,600 events: "
        "per-event service-loop overhead least diluted; an engine change predicts little change"
    )
    sizes = {
        "full": {"n_ases": 120, "warmup_blocks": 1, "drains_per_block": 50, "blocks_per_round": 3,
                 "rounds": 12},
        "smoke": {"n_ases": 60, "warmup_blocks": 1, "drains_per_block": 4, "blocks_per_round": 2,
                  "rounds": 2},
    }
    #: events per ``drain`` call (= ``batch_max``: one full batch).
    DRAIN = 64

    def __init__(self, seed: int, size: dict, tr) -> None:
        self._init_common(tr)
        self.size = size
        self.seed = seed
        # the existing soak mix, with its flaps and jitters fed in at an exact
        # cadence (one of each per block of 50 drains) instead of drawn
        self.config = ServiceConfig(
            seed=seed,
            batch_max=self.DRAIN,
            arrival_rate=400.0,
            mean_lifetime_events=10.0,
            p_link_event=0.0,
            p_capacity_event=0.0,
            record_capacity=256,
        )
        topology = TopologyConfig(n_ases=size["n_ases"], seed=TOPOLOGY_SEED)
        with tr.span("topology.build", "topology"):
            self.links = generate_topology(topology).links()
        self.heavy = heavy_links(self.links)
        self.block_no = 0
        with tr.span("service.bootstrap", "service"):
            self.session = ServiceSession(
                self.config, topology=topology, backend="array", telemetry=self.traced or None
            )
            for _ in range(size["warmup_blocks"]):
                self._block(None, tr)
        self._mark_baseline()
        self.flaps = 0

    def _block(self, rec, tr) -> None:
        """One block of drains, a seeded one led by a flap, another by a jitter."""
        n = self.size["drains_per_block"]
        rng = np.random.default_rng((self.seed, 0xB10C, self.block_no))
        flap_at, jitter_at = rng.choice(n, size=2, replace=False).tolist()
        for i in range(n):
            session = self.session
            if i == flap_at:
                fail = self.block_no % 2 == 0
                session.feed(make_flap(rng, self.links, self.heavy, fail, self.config))
            elif i == jitter_at:
                session.feed(make_jitter(rng))
            t0 = perf_counter_ns()
            with tr.span("service.drain", "service"):
                session.drain(self.DRAIN)
            if rec is not None:
                rec.lat_ns.append(perf_counter_ns() - t0)
                rec.units += self.DRAIN
                if self.traced:
                    self.kinds.append("link_flap" if i == flap_at else "arrival")
        self.block_no += 1

    def round(self, r: int, rec, tr) -> None:
        for _ in range(self.size["blocks_per_round"]):
            self._block(rec, tr)
        self.flaps += self.size["blocks_per_round"]
        if r == 0:
            self.first_records = _records(self.session)
        self._save_restore(tr)

    def check(self) -> Check:
        failures = check_restore(
            self.session,
            self.session.checkpoint_json(),
            lambda session: session.drain(N_CHECK_EVENTS),
        )
        self._cleanup()
        return Check(1, failures, digest(self.first_records))


def heavy_links(links: list) -> list[int]:
    """Indices of the provider-customer links: failing one re-converges every
    cached destination, while a peering flap dirties a couple."""
    return [i for i, (_u, _v, rel) in enumerate(links) if rel is not Relationship.PEER]


def make_flap(rng, links: list, heavy: list[int], fail: bool, config: ServiceConfig) -> LinkFlap:
    """A ``LinkFlap`` that fails a seeded provider-customer link of the
    intact graph, or recovers the last failure."""
    victim = heavy[int(rng.integers(len(heavy)))]
    return LinkFlap(
        pick=(victim + 0.5) / len(links),
        recover_draw=1.0 if fail else 0.0,
        max_failed=config.max_failed_links,
    )


def make_jitter(rng) -> CapacityJitter:
    """A ``CapacityJitter`` drawn as the program's stream draws them."""
    return CapacityJitter(pick=float(rng.random()), factor=float(0.25 + 0.75 * rng.random()))


def make_blocks(graph, config: ServiceConfig, seed: int, block: int, n_blocks: int) -> list:
    """``n_blocks`` lists of ``(dt, event)``: arrivals in the program's stream
    order, one seeded flap and one seeded jitter at seeded slots per block;
    even blocks fail a link, odd blocks recover it."""
    stream = EventStream(graph, config)
    rng = np.random.default_rng((seed, 0xB10C))
    links = graph.links()
    heavy = heavy_links(links)
    cursor = 0
    blocks = []
    for b in range(n_blocks):
        flap_at, jitter_at = rng.choice(block, size=2, replace=False).tolist()
        events = []
        for slot in range(block):
            if slot == flap_at or slot == jitter_at:
                dt = float(rng.exponential(1.0 / config.arrival_rate))
                if slot == flap_at:
                    event = make_flap(rng, links, heavy, b % 2 == 0, config)
                else:
                    event = make_jitter(rng)
            else:
                while True:
                    dt, event = stream.event_at(cursor)
                    cursor += 1
                    if isinstance(event, FlowArrival):
                        break
            events.append((dt, event))
        blocks.append(events)
    return blocks
