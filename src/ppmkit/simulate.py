"""Synthetic modeling sessions for end-to-end testing.

A session "builds" a known target model, one editor action at a time. The
structured profile lays blocks down one after another with few corrections;
the chaotic profile scatters creates across the whole model, churns through
throwaway activities, fidgets with positions, and usually wires one gateway
pair wrong, leaving a model that cannot run to completion cleanly. The slow
and fast profiles are the structured builder at different tempos.

Randomness comes from a hand-rolled splitmix64 generator rather than
random.Random so that logs are reproducible bit for bit on any Python
version or platform, and so ports to other languages can match cohorts.

The target model is built once per process and each session edits a copy
of its own. No draw depends on it, so a cohort is the same bytes whichever
sessions a process ran before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone

from .eventlog import EventKind, EventLog, ModelingEvent, ObjectType
from .model import NODE_TYPES, Edge, Node, ProcessModel

MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 (Steele, Lea & Flood 2014), the java.util.SplittableRandom
    mixer. Chosen for reproducibility: three multiply-xorshift lines, no
    state beyond one 64-bit word, identical output everywhere.
    """

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = z = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends included."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        mask = (1 << span.bit_length()) - 1
        while True:  # masked rejection keeps the draw unbiased
            draw = self.next_u64() & mask
            if draw < span:
                return lo + draw

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True, slots=True)
class SimulationProfile:
    name: str
    block_interleave_prob: float
    move_rate: float
    mean_gap: float
    p_defect: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.block_interleave_prob <= 1.0:
            raise ValueError(
                f"block_interleave_prob must be in [0, 1], got {self.block_interleave_prob}"
            )
        if not 0.0 <= self.p_defect <= 1.0:
            raise ValueError(f"p_defect must be in [0, 1], got {self.p_defect}")
        if not 0.0 <= self.move_rate < math.inf:
            raise ValueError(f"move_rate must be non-negative and finite, got {self.move_rate}")
        if not 0.0 < self.mean_gap < math.inf:
            raise ValueError(f"mean_gap must be positive and finite, got {self.mean_gap}")


PROFILES: dict[str, SimulationProfile] = {
    "structured": SimulationProfile("structured", 0.0, 0.2, 4.0),
    "chaotic": SimulationProfile("chaotic", 0.9, 2.0, 7.0, p_defect=0.7),
    "slow": SimulationProfile("slow", 0.0, 0.2, 25.0),
    "fast": SimulationProfile("fast", 0.0, 0.2, 1.5),
}

EPOCH = datetime(2010, 11, 15, 10, 0, 0, tzinfo=timezone.utc)

# Target model: a pre-flight process of three gateway blocks in sequence.
_COLS = {
    "start": 0, "t_brief": 1,
    "xor1s": 2, "a_fuel": 3, "a_deice": 3, "xor1j": 4,
    "and2s": 5, "a_lug": 6, "a_cat": 6, "and2j": 7,
    "xor3s": 8, "a_run": 9, "a_gate": 9, "xor3j": 10,
    "t_clear": 11, "end": 12,
}
_NODE_SPECS = [
    ("start", ObjectType.START_EVENT, None, 240),
    ("t_brief", ObjectType.ACTIVITY, "crew briefing", 240),
    ("xor1s", ObjectType.XOR, None, 240),
    ("a_fuel", ObjectType.ACTIVITY, "refuel plane", 140),
    ("a_deice", ObjectType.ACTIVITY, "de-ice wings", 340),
    ("xor1j", ObjectType.XOR, None, 240),
    ("and2s", ObjectType.AND, None, 240),
    ("a_lug", ObjectType.ACTIVITY, "load luggage", 140),
    ("a_cat", ObjectType.ACTIVITY, "load catering", 340),
    ("and2j", ObjectType.AND, None, 240),
    ("xor3s", ObjectType.XOR, None, 240),
    ("a_run", ObjectType.ACTIVITY, "runway check", 140),
    ("a_gate", ObjectType.ACTIVITY, "leave gate", 340),
    ("xor3j", ObjectType.XOR, None, 240),
    ("t_clear", ObjectType.ACTIVITY, "request clearance", 240),
    ("end", ObjectType.END_EVENT, None, 240),
]
_EDGE_SPECS = [
    ("e01", "start", "t_brief"), ("e02", "t_brief", "xor1s"),
    ("e03", "xor1s", "a_fuel"), ("e04", "xor1s", "a_deice"),
    ("e05", "a_fuel", "xor1j"), ("e06", "a_deice", "xor1j"),
    ("e07", "xor1j", "and2s"),
    ("e08", "and2s", "a_lug"), ("e09", "and2s", "a_cat"),
    ("e10", "a_lug", "and2j"), ("e11", "a_cat", "and2j"),
    ("e12", "and2j", "xor3s"),
    ("e13", "xor3s", "a_run"), ("e14", "xor3s", "a_gate"),
    ("e15", "a_run", "xor3j"), ("e16", "a_gate", "xor3j"),
    ("e17", "xor3j", "t_clear"), ("e18", "t_clear", "end"),
]

# Creation order for the tidy builder: one block finished before the next.
_PACKAGES = [
    ["start"],
    ["t_brief"],
    ["xor1s", "a_fuel", "a_deice", "xor1j"],
    ["and2s", "a_lug", "a_cat", "and2j"],
    ["xor3s", "a_run", "a_gate", "xor3j"],
    ["t_clear"],
    ["end"],
]


_TEMPLATE = ProcessModel(
    (Node(node_id, node_type, label, (60 + 120 * _COLS[node_id], y))
     for node_id, node_type, label, y in _NODE_SPECS),
    (Edge(edge_id, source, target) for edge_id, source, target in _EDGE_SPECS))

# The event kinds that create and move a node of each type.
_CREATE_KIND = {otype: EventKind[f"CREATE_{otype.value}"] for otype in NODE_TYPES}
_MOVE_KIND = {otype: EventKind[f"MOVE_{otype.value}"] for otype in NODE_TYPES}


def default_template() -> ProcessModel:
    """The target model every session builds, as a copy of its own."""
    return _TEMPLATE.copy()


class _SessionBuilder:
    def __init__(self, rng: SplitMix64, mean_gap: float):
        self.rng = rng
        self.mean_gap = mean_gap
        self.events: list[ModelingEvent] = []
        self.clock = EPOCH

    def emit(self, kind: EventKind, object_id: str, position=None, label=None,
             source=None, target=None) -> None:
        events = self.events  # positional calls: keywords cost ~0.5 us more an event
        events.append(ModelingEvent(len(events) + 1, self.clock, kind, object_id, position,
                                    label, source, target))
        gap_ms = max(1, round(self.mean_gap * (0.5 + self.rng.random()) * 1000))
        self.clock += timedelta(0, 0, 0, gap_ms)  # days, seconds, microseconds, milliseconds

    def create_node(self, node: Node) -> None:
        self.emit(_CREATE_KIND[node.type], node.id, position=node.position)
        if node.type is ObjectType.ACTIVITY and node.label:
            self.emit(EventKind.NAME_ACTIVITY, node.id, label=node.label)

    def create_edge(self, edge: Edge) -> None:
        self.emit(EventKind.CREATE_EDGE, edge.id, source=edge.source, target=edge.target)


def _jitter(rng: SplitMix64, position: tuple[int, int]) -> tuple[int, int]:
    return (position[0] + rng.randint(-40, 40), position[1] + rng.randint(-40, 40))


def _emit_creates_tidy(b: _SessionBuilder, target: ProcessModel) -> None:
    # Block by block; an edge appears as soon as both its endpoints do.
    emitted_edges: set[str] = set()

    def flush_edges():
        for edge in target.edges.values():
            if edge.id in emitted_edges:
                continue
            if edge.source in placed and edge.target in placed:
                emitted_edges.add(edge.id)
                b.create_edge(edge)

    placed: set[str] = set()
    for package in _PACKAGES:
        order = list(package)
        if len(order) == 4:  # vary which branch of a block comes first
            middle = order[1:3]
            b.rng.shuffle(middle)
            order[1:3] = middle
        for node_id in order:
            b.create_node(target.nodes[node_id])
            placed.add(node_id)
        flush_edges()


def _emit_creates_scattered(b: _SessionBuilder, target: ProcessModel,
                            temp_count: int) -> None:
    # Creates in global random order, all wiring deferred to the end, plus
    # a few throwaway activities that get deleted again.
    node_order = [node_id for package in _PACKAGES for node_id in package]
    b.rng.shuffle(node_order)
    slots: list[tuple[str, str]] = [("create", node_id) for node_id in node_order]
    for k in range(1, temp_count + 1):
        temp_id = f"tmp_{k}"
        at = b.rng.randint(0, len(slots))
        slots.insert(at, ("create_temp", temp_id))
        at_del = b.rng.randint(at + 1, len(slots))
        slots.insert(at_del, ("delete_temp", temp_id))
    for action, object_id in slots:
        if action == "create":
            b.create_node(target.nodes[object_id])
        elif action == "create_temp":
            pos = (b.rng.randint(50, 900), b.rng.randint(80, 400))
            b.emit(EventKind.CREATE_ACTIVITY, object_id, position=pos)
            b.emit(EventKind.NAME_ACTIVITY, object_id, label="draft task")
        else:
            b.emit(EventKind.DELETE_ACTIVITY, object_id)
    edge_order = sorted(target.edges)
    b.rng.shuffle(edge_order)
    for edge_id in edge_order:
        b.create_edge(target.edges[edge_id])


def _emit_moves(b: _SessionBuilder, target: ProcessModel, move_rate: float,
                bendpoint_pairs: int) -> None:
    node_ids = sorted(target.nodes)
    budget = max(1, int(round(move_rate * (len(target.nodes) + len(target.edges)))))
    dirty: dict[str, None] = {}  # the nudged nodes, in the order first nudged
    for _ in range(budget):
        node_id = b.rng.choice(node_ids)
        node = target.nodes[node_id]
        b.emit(_MOVE_KIND[node.type], node_id, position=_jitter(b.rng, node.position))
        dirty[node_id] = None
    edge_ids = sorted(target.edges)
    for _ in range(bendpoint_pairs):
        edge_id = b.rng.choice(edge_ids)
        midpoint = _jitter(b.rng, (480, 240))
        b.emit(EventKind.CREATE_EDGE_BENDPOINT, edge_id, position=midpoint)
        b.emit(EventKind.DELETE_EDGE_BENDPOINT, edge_id)
    # Tidy up: every nudged node snaps back to its intended spot, so the
    # session still ends in the target model exactly.
    for node_id in dirty:
        node = target.nodes[node_id]
        b.emit(_MOVE_KIND[node.type], node_id, position=node.position)


def simulate(profile: SimulationProfile, session_id: str = "") -> EventLog:
    """Generate one session log. Deterministic for a fixed profile."""
    rng = SplitMix64(profile.seed)
    target = default_template()

    defective = rng.random() < profile.p_defect
    if defective:
        and_ids = [n.id for n in target.nodes.values()
                   if n.type is ObjectType.AND]
        if and_ids:  # miswire one parallel gateway as an exclusive one
            victim = rng.choice(sorted(and_ids))
            target.update_node(victim, type=ObjectType.XOR)

    interleaved = rng.random() < profile.block_interleave_prob

    builder = _SessionBuilder(rng, profile.mean_gap)
    try:
        if interleaved:
            _emit_creates_scattered(builder, target, temp_count=rng.randint(1, 3))
            bendpoint_pairs = 3
        else:
            _emit_creates_tidy(builder, target)
            bendpoint_pairs = 0
        _emit_moves(builder, target, profile.move_rate, bendpoint_pairs)
    except OverflowError:  # a gap or the clock past what timedelta or datetime holds
        raise ValueError("mean_gap must keep a session's clock within datetime's range, "
                         f"got {profile.mean_gap}") from None

    name = session_id or f"{profile.name}_{profile.seed}"
    return EventLog(session_id=name, events=tuple(builder.events))


def simulate_cohort(profile: SimulationProfile, sessions: int,
                    seed: int) -> list[EventLog]:
    """Generate a cohort; one master seed spawns one child seed per session."""
    if sessions < 1:
        raise ValueError(f"sessions must be positive, got {sessions}")
    master = SplitMix64(seed)
    logs = []
    for index in range(sessions):
        child = replace(profile, seed=master.next_u64())
        logs.append(simulate(child, f"{profile.name}_{seed}_{index:03d}"))
    return logs
