"""The benchmark's three workloads, their correctness checks and scoring.

Every workload drives the public API of :mod:`repro` the way a user runs
it: :class:`~repro.core.quality.MappingQualityAssessor` at its defaults
(``ttl = DEFAULT_TTL``, ``delta = 0.1``, ``seed = 0``, the ``numpy`` sweep
executor, the ``serial`` probe executor) except ``include_parallel_paths
= False`` (see README.md).  Each call into a layer goes through
:meth:`Recorder.call`, which times it and, in a traced run, records a
span around it.  Inputs come only from the workload seed.  What decides
how much work a run does is fixed for every seed — the topologies, the
global error patterns, the churn stream — and the seed picks the rest:
the global pattern visited first, the churn error pattern and the gossip
transport schedules (see README.md for the measurements behind this).
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.constants import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE
from repro.core.analysis import structure_signatures
from repro.core.quality import MappingQualityAssessor
from repro.evaluation.experiments import gossip_workload_network
from repro.generators import inject_errors, scale_free_network
from repro.pdms.events import MappingAdded, PeerAdded
from repro.pdms.gossip import GossipHarness, SeededTransport

from speed import SpeedMeter
from tracing import Tracer

__all__ = ["SCALES", "WORKLOADS", "Recorder"]

#: Assessor settings of every workload: the defaults, pinned so that no
#: environment knob can change the executors, plus cycle-only evidence.
ASSESSOR = {"include_parallel_paths": False, "executor": "numpy",
            "probe_executor": "serial"}
THETA = 0.5
#: Fixed topology, churn-stream and gossip-schedule seeds: every run does
#: the same work, and the workload seed picks the order it is done in.
TOPOLOGY_SEED = 0
STREAM_SEED = 0
SCHEDULE_SEED = 0

#: Sizes per scale; ``tiny`` exists for the benchmark's own tests.
SCALES = {
    "full": {
        "global_peers": 32, "global_scenarios": 3, "global_builds": 5,
        "churn_peers": 256, "churn_patterns": 3, "churn_lap_ops": 80,
        "churn_check_every": 8, "churn_working_set": 16,
        "gossip_peers": 96, "gossip_schedules": 2, "gossip_builds": 5,
    },
    "tiny": {
        "global_peers": 8, "global_scenarios": 2, "global_builds": 2,
        "churn_peers": 16, "churn_patterns": 2, "churn_lap_ops": 12,
        "churn_check_every": 2, "churn_working_set": 6,
        "gossip_peers": 10, "gossip_schedules": 2, "gossip_builds": 2,
    },
}


class Recorder:
    """Timings, counts, checks and spans of one benchmark run."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.tracer = Tracer()
        self.speed = SpeedMeter()
        #: A timed block is a tuple of ``(start, end)`` pieces: the speed
        #: readings taken inside it split it (see ``speed.py``).
        self.setups: List[Tuple[Tuple[float, float], ...]] = []
        #: ``(start, end)`` per call name, traced or not.
        self.calls: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        #: ``(kind, pieces, traced)`` per timed operation.
        self.ops: List[Tuple[str, Tuple[Tuple[float, float], ...], bool]] = []
        self._pieces: Optional[List[Tuple[float, float]]] = None
        self._piece_start = 0.0
        self.attempted = 0
        self.failed = 0
        #: Confusion counts of the scored θ decisions: tp, fp, fn, tn.
        self.confusion = [0, 0, 0, 0]
        self.lanes = 0
        self.converged_lanes = 0
        #: Message-passing rounds per scored operation.
        self.rounds: List[float] = []
        self.counts: Dict[str, float] = {}
        #: Largest differences seen by the correctness checks.
        self.checks: Dict[str, float] = {}
        self.peak_rss_mb = 0.0

    def call(self, name: str, function: Callable, *args, **kwargs):
        self._reading_point()
        with self.tracer.span(name):
            start = time.perf_counter()
            result = function(*args, **kwargs)
            self.calls[name].append((start, time.perf_counter()))
        return result

    def _open(self) -> None:
        self._pieces = []
        self._piece_start = time.perf_counter()

    def _close(self) -> Tuple[Tuple[float, float], ...]:
        self._pieces.append((self._piece_start, time.perf_counter()))
        pieces, self._pieces = tuple(self._pieces), None
        return pieces

    def _reading_point(self) -> None:
        """Inside a timed block of an untraced run, take a due speed reading
        and leave its time out of the block."""
        if self._pieces is None or self.trace or not self.speed.due():
            return
        self._pieces.append((self._piece_start, time.perf_counter()))
        self.speed.tick()
        self._piece_start = time.perf_counter()

    @contextmanager
    def setup(self) -> Iterator[None]:
        """One timed set-up (traced as spans outside any operation), with
        machine-speed readings around it."""
        self.speed.tick()
        self.tracer.enabled = self.trace
        self._open()
        yield
        self.setups.append(self._close())
        self.tracer.enabled = False
        self.speed.tick()

    @contextmanager
    def operation(self, kind: str) -> Iterator[None]:
        """One timed operation, with machine-speed readings around it; a
        traced run traces every other operation of each kind, so traced and
        untraced medians can be compared."""
        self.speed.tick()
        index = len(self.ops)
        traced = self.trace and sum(op[0] == kind for op in self.ops) % 2 == 1
        self.tracer.enabled = traced
        with self.tracer.span(f"op.{kind}", op=index):
            self._open()
            yield
            pieces = self._close()
        self.tracer.enabled = False
        self.ops.append((kind, pieces, traced))
        self.speed.tick()

    def score(self, decisions: Dict[Tuple[str, str], float],
              truth: Dict[Tuple[str, str], bool]) -> None:
        """Add θ decisions (flag iff P <= θ) on the pairs ground truth knows."""
        for key, probability in decisions.items():
            correct = truth.get(key)
            if correct is None:
                continue
            flagged = probability <= THETA
            if flagged:
                self.confusion[1 if correct else 0] += 1  # fp / tp
            else:
                self.confusion[3 if correct else 2] += 1  # tn / fn

    def lane(self, rounds: int) -> None:
        self.lanes += 1
        self.converged_lanes += rounds < DEFAULT_MAX_ITERATIONS

    def mark_peak_rss(self) -> None:
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _valid(values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) and 0.0 <= v <= 1.0
               for v in values)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _scenario(peers: int, error_seed: int):
    """Scale-free PDMS (fixed topology), 10 attributes, 15% corrupted."""
    network = scale_free_network(peers, attribute_count=10, seed=TOPOLOGY_SEED)
    truth = inject_errors(network, 0.15, seed=error_seed)
    return network, truth


def _add(counts: Dict[str, float], values: Dict[str, float]) -> None:
    for name, value in values.items():
        counts[name] = counts.get(name, 0) + value


def _decide_all(assessor: MappingQualityAssessor, network) -> Dict[Tuple[str, str], float]:
    """θ-decision input for every in-scope (mapping, attribute) pair: the
    mapping maps the attribute, or its source schema declares it (⊥)."""
    decisions = {}
    for attribute in network.attribute_universe():
        unmappable = set(assessor.assessment(attribute).unmappable)
        for mapping in network.mappings:
            if mapping.name in unmappable or mapping.maps_attribute(attribute):
                decisions[(mapping.name, attribute)] = assessor.probability(
                    mapping, attribute)
    return decisions


# -- global_ttl6 ---------------------------------------------------------------


def run_global(rec: Recorder, seed: int, seconds: float, scale: dict) -> None:
    """Cold global passes over ``global_scenarios`` fixed error patterns.

    Which lanes converge, and so how much a pass sweeps, depends on where
    the errors fall: over four seeded sets of three patterns the mean lane
    rounds ranged 34-47.  The patterns are therefore the same for every
    seed (error seeds ``1 .. global_scenarios``) and the seed only picks
    the one the round-robin starts with.  Passes run in whole rounds over
    the patterns, so each is timed equally often, until ``seconds`` have
    passed and every pattern was assessed twice; the first pass of
    each pattern is scored, later passes (on a rebuilt network) must repeat
    its decisions bit for bit.
    """
    count = scale["global_scenarios"]
    first: Dict[int, Dict[Tuple[str, str], float]] = {}
    start = time.perf_counter()
    index = 0
    while (index < 2 * count or index % count
           or time.perf_counter() - start < seconds):
        slot = (seed + index) % count
        # Set-ups are spread over the run so their median sees the same
        # machine as the passes; each pass gets a freshly built network.
        for _ in range(scale["global_builds"]):
            with rec.setup():
                network, truth = rec.call("generators.build", _scenario,
                                          scale["global_peers"], 1 + slot)
        rec.attempted += 1
        with rec.operation("pass"):
            assessor = rec.call("quality.assessor", MappingQualityAssessor,
                                network, **ASSESSOR)
            cycles, paths = rec.call("discovery.probe",
                                     assessor.structure_cache.structures)
            plan = rec.call("batched.compile", assessor.assessment_plan)
            results = rec.call("plan.sweep", assessor.assess_all_attributes)
            decisions = rec.call("quality.decide", _decide_all, assessor, network)
        ok = _valid(decisions.values()) and all(key in decisions for key in truth)
        if slot in first:
            ok = ok and decisions == first[slot]
        else:
            first[slot] = decisions
            rec.score(decisions, truth)
            iterations = [result.iterations for result in results.values()]
            for rounds in iterations:
                rec.lane(rounds)
            rec.rounds.append(statistics.fmean(iterations))
            stats = assessor.structure_cache.statistics
            _add(rec.counts, {
                "discovery.structures": len(cycles) + len(paths),
                "batched.edge_rows": plan.edge_count,
                "plan.rounds_p50": _median(iterations),
                "analysis.partial_refreshes": stats.partial_refreshes,
                "analysis.full_refreshes": stats.full_refreshes,
            })
        rec.failed += not ok
        index += 1
    rec.mark_peak_rss()
    for name in ("discovery.structures", "batched.edge_rows", "plan.rounds_p50"):
        rec.counts[name] /= count


# -- churn_ttl6 ----------------------------------------------------------------


def _canonical(cycles, paths) -> List[Tuple[str, ...]]:
    return sorted(names for _, names in structure_signatures(cycles, paths))


def run_churn(rec: Recorder, seed: int, seconds: float, scale: dict) -> None:
    """A closed-loop client, ~60% local reads and ~40% mapping writes, in laps.

    A lap builds the network with one of ``churn_patterns`` fixed error
    patterns (error seeds ``1 .. churn_patterns``), warms every peer's
    neighbourhood — the set-up — and runs the fixed stream of
    ``churn_lap_ops`` operations on it.  Laps visit the patterns
    round-robin in whole rounds until ``seconds`` have passed, so every run
    times the same operations; the seed picks the pattern the round-robin
    starts with.  The first round is scored.
    """
    count = scale["churn_patterns"]
    start = time.perf_counter()
    lap = 0
    while lap < count or lap % count or time.perf_counter() - start < seconds:
        _churn_lap(rec, 1 + (seed + lap) % count, lap < count, scale)
        lap += 1
    rec.mark_peak_rss()
    reads = max(len(rec.rounds), 1)
    for name in ("discovery.structures", "batched.edge_rows"):
        rec.counts[name] = rec.counts.get(name, 0) / reads
    rec.counts["plan.rounds_p50"] = _median(rec.rounds)


def _churn_lap(rec: Recorder, error_seed: int, scored: bool, scale: dict) -> None:
    """One lap: set-up, then the stream.  A read is ``assess_locals([peer],
    attribute)`` for a random peer of the working set, after refreshing the
    peer's structures; a write removes a random mapping or re-adds a
    removed one.  A lap's writes stay far below
    ``PDMSNetwork.MUTATION_LOG_LIMIT``, so refreshes stay partial."""
    with rec.setup():
        network, truth = rec.call("generators.build", _scenario,
                                  scale["churn_peers"], error_seed)
        assessor = MappingQualityAssessor(network, **ASSESSOR)
        rec.call("discovery.warm", assessor.neighborhood_cache.warm,
                 network.peer_names)
    cache = assessor.neighborhood_cache
    base_partial = cache.statistics.partial_refreshes
    base_full = cache.statistics.full_refreshes
    # A read's refresh replays every write since that peer's previous read,
    # so reads go to a fixed working set of peers: each is re-read often and
    # the refresh cost stays level instead of growing with the stream.  The
    # stream itself (which peer reads which attribute, which mapping is
    # written) is fixed: with a seeded stream the median read moved 2-3x
    # with which hub mappings were re-added early and which attributes were
    # asked.
    stream = random.Random(STREAM_SEED)
    peers = stream.sample(network.peer_names, scale["churn_working_set"])
    attributes = network.attribute_universe()
    removed: list = []
    last_read: Dict[str, int] = {}
    failed_ops: set = set()
    reads = 0
    for _ in range(scale["churn_lap_ops"]):
        op = len(rec.ops)
        rec.attempted += 1
        if stream.random() < 0.6:
            peer, attribute = stream.choice(peers), stream.choice(attributes)
            with rec.operation("read"):
                cycles, paths = rec.call("analysis.refresh", cache.structures_for, peer)
                view = rec.call("batched.local", assessor.assess_locals,
                                [peer], attribute)[peer]
            rounds = len(assessor.last_local_round_edge_counts)
            ok = _valid(view.values())
            if reads % scale["churn_check_every"] == 0:
                fresh = MappingQualityAssessor(network, **ASSESSOR).assess_locals(
                    [peer], attribute)[peer]
                capped = rounds >= DEFAULT_MAX_ITERATIONS
                ok = ok and fresh.keys() == view.keys()
                if ok and view:
                    diff = max(abs(fresh[m] - view[m]) for m in view)
                    key = "view_diff_capped" if capped else "view_diff_converged"
                    rec.checks[key] = max(rec.checks.get(key, 0.0), diff)
                    # A refreshed cache lists its structures in another order
                    # than a cold probe; a lane stopped by the round cap keeps
                    # that order's rounding, so it is held to the sweep
                    # tolerance instead of 1e-12.
                    ok = diff <= (DEFAULT_TOLERANCE if capped else 1e-12)
            if scored:
                rec.score({(m, attribute): p for m, p in view.items()}, truth)
                rec.lane(rounds)
                rec.rounds.append(rounds)
                _add(rec.counts, {
                    "discovery.structures": len(cycles) + len(paths),
                    "batched.edge_rows": (assessor.last_local_round_edge_counts or (0,))[0],
                })
            last_read[peer] = op
            reads += 1
        else:
            if removed and stream.random() < 0.5:
                mapping = removed.pop(stream.randrange(len(removed)))
                with rec.operation("write"):
                    rec.call("network.write", network.add_mapping, mapping,
                             bidirectional=False)
            else:
                name = stream.choice(network.mapping_names)
                with rec.operation("write"):
                    removed.append(rec.call("network.write",
                                            network.remove_mapping, name))
            ok = True
        if not ok:
            failed_ops.add(op)
    # Untimed end check: every read peer's refreshed structure set equals a
    # fresh assessor's cold probe of the final network.
    fresh_cache = MappingQualityAssessor(network, **ASSESSOR).neighborhood_cache
    fresh_cache.warm(list(last_read))
    for peer, op in last_read.items():
        if (_canonical(*cache.structures_for(peer))
                != _canonical(*fresh_cache.structures_for(peer))):
            failed_ops.add(op)
    rec.failed += len(failed_ops)
    if scored:
        _add(rec.counts, {
            "analysis.partial_refreshes": cache.statistics.partial_refreshes - base_partial,
            "analysis.full_refreshes": cache.statistics.full_refreshes - base_full,
        })


# -- gossip_chord --------------------------------------------------------------


class NotConverged(Exception):
    """Gossip did not converge within the round budget."""


def _converge(rec: Recorder, harness: GossipHarness, max_rounds: int = 128) -> int:
    rounds = 0
    while not rec.call("gossip.converged", harness.converged):
        if rounds >= max_rounds:
            raise NotConverged(f"gossip did not converge in {max_rounds} rounds")
        rec.call("gossip.round", harness.run_round)
        rounds += 1
    return rounds


def run_gossip(rec: Recorder, seed: int, seconds: float, scale: dict) -> None:
    """Replications of the corrupted chord ring to convergence.

    Each replication builds a fresh harness (fanout 3, 5% drop, 5%
    duplicate) on one of ``gossip_schedules`` fixed transport seeds, visited
    round-robin in whole rounds so every run times the same replications;
    the workload seed picks the one the round-robin starts with.  It gossips the
    ``PeerAdded`` then the ``MappingAdded`` events to convergence and takes
    every node's ``assess_local`` view of every attribute; the views must
    equal the single-process oracle's exactly.
    """
    count = scale["gossip_schedules"]
    schedules = random.Random(SCHEDULE_SEED)
    transport_seeds = [schedules.randrange(2**31) for _ in range(count)]
    start = time.perf_counter()
    replication = 0
    while (replication < count or replication % count
           or time.perf_counter() - start < seconds):
        transport_seed = transport_seeds[(seed + replication) % count]
        for _ in range(scale["gossip_builds"]):
            with rec.setup():
                template = rec.call("generators.build", gossip_workload_network,
                                    scale["gossip_peers"])
                transport = SeededTransport(seed=transport_seed, drop_probability=0.05,
                                            duplicate_probability=0.05)
                harness = rec.call("gossip.harness", GossipHarness.of_names,
                                   template.peer_names, transport=transport,
                                   fanout=3, seed=transport_seed, **ASSESSOR)
        attributes = sorted(template.peers[0].schema.attribute_names)
        views: Dict[Tuple[str, str], Dict[str, float]] = {}
        lanes: List[Tuple[int, int]] = []
        rec.attempted += 1
        try:
            with rec.operation("replicate"):
                rec.call("gossip.originate", _originate_all, harness, template.peers,
                         lambda peer: PeerAdded(name=peer.name, schema=peer.schema),
                         lambda peer: peer.name)
                rounds = _converge(rec, harness)
                rec.call("gossip.originate", _originate_all, harness, template.mappings,
                         lambda mapping: MappingAdded(mapping=mapping),
                         lambda mapping: mapping.source)
                rounds += _converge(rec, harness)
                for node in harness.nodes:
                    rec.call("events.replay", node.local_network)
                    rec.call("analysis.probe", _probe_own, node)
                    for attribute in attributes:
                        views[(node.name, attribute)] = rec.call(
                            "quality.view", node.assess_local, attribute)
                        counts = node.assessor().last_local_round_edge_counts
                        lanes.append((len(counts), counts[0] if counts else 0))
        except NotConverged:
            rec.failed += 1
            replication += 1
            continue
        oracle = {a: harness.oracle_views(a) for a in attributes}
        ok = all(_valid(view.values()) and view == oracle[a][name]
                 for (name, a), view in views.items())
        rec.failed += not ok
        if replication < count:
            useful = harness.delivered_event_count
            rec.rounds.append(rounds)
            _add(rec.counts, {
                "gossip.messages_sent": transport.sent,
                "gossip.useful_deliveries": useful,
                "gossip.duplicates_dropped": harness.duplicates_dropped,
                "gossip.deliveries_buffered": harness.deliveries_buffered,
            })
        if replication == 0:
            truth = {(m.name, c.source_attribute): c.is_correct is not False
                     for m in template.mappings for c in m.correspondences}
            for (name, attribute), view in views.items():
                rec.score({(m, attribute): p for m, p in view.items()}, truth)
            for lane_rounds, _ in lanes:
                rec.lane(lane_rounds)
            structures = [_own_structures(node) for node in harness.nodes]
            rec.counts.update({
                "discovery.structures": _median(structures),
                "batched.edge_rows": _median([rows for _, rows in lanes]),
                "plan.rounds_p50": _median([r for r, _ in lanes]),
                "analysis.full_refreshes": sum(
                    n.assessor().neighborhood_cache.statistics.full_refreshes
                    for n in harness.nodes),
                "analysis.partial_refreshes": sum(
                    n.assessor().neighborhood_cache.statistics.partial_refreshes
                    for n in harness.nodes),
            })
        replication += 1
    rec.mark_peak_rss()
    scored = min(replication, count)
    for name in ("gossip.messages_sent", "gossip.useful_deliveries",
                 "gossip.duplicates_dropped", "gossip.deliveries_buffered"):
        rec.counts[name] = rec.counts.get(name, 0) / max(scored, 1)


def _originate_all(harness, items, event, origin) -> None:
    for item in items:
        harness.originate(origin(item), event(item))


def _probe_own(node):
    return node.assessor().neighborhood_cache.structures_for(node.name)


def _own_structures(node) -> int:
    cycles, paths = _probe_own(node)
    return len(cycles) + len(paths)


WORKLOADS = {
    "global_ttl6": run_global,
    "churn_ttl6": run_churn,
    "gossip_chord": run_gossip,
}
