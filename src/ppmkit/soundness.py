"""Classical soundness of workflow nets: net reduction, then state exploration.

A net is sound when, starting from one token on the source place: the
completion marking (one token on the sink, nothing else) stays reachable
from every reachable marking, nothing is ever left over once the sink is
marked, and every transition can fire in some run.

A WF-net is sound exactly when its short-circuited net is live and
bounded (van der Aalst 1997), and four reduction rules that preserve
liveness and boundedness (Murata 1989; Desel and Esparza 1995) collapse
every block-structured net to the trivial net i -> t -> o. So the check
reduces first: when that succeeds, the net is Sound without exploring,
and the report counts the trivial net's 2 markings. Otherwise the
explorer runs on the original net, and every Unsound or Unknown report
comes from it alone.

Exploration is breadth-first with deterministic transition order, so
witnesses and traces are reproducible. A marking that strictly dominates
one of its ancestors proves the net unbounded (the pumping run can
repeat), which rules out soundness immediately; the walk is skipped on
acyclic nets, whose runs are all finite. The cap on explored markings
(max_states, set by `classify --max-states`) turns pathological nets into
an honest Unknown instead of an endless run.

A report's verdict is not stored but read off its violations: none is
Sound, a StateSpaceExceeded (the cap) is Unknown, anything else Unsound.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain

from .wfnet import WFNet, is_wf_structured

DEFAULT_MAX_STATES = 100_000

SOUND = "Sound"
UNSOUND = "Unsound"
UNKNOWN = "Unknown"

VIOLATION_KINDS = ("NotWFStructured", "DeadlockNoCompletion", "ImproperCompletion",
                   "DeadTransition", "Unbounded", "StateSpaceExceeded")


@dataclass(frozen=True)
class Violation:
    kind: str  # one of VIOLATION_KINDS
    witness: object = None  # marking dict, transition id, or offending node ids
    trace: tuple[str, ...] | None = None  # firing sequence from the initial marking

    def to_dict(self) -> dict:
        witness = self.witness
        if isinstance(witness, tuple):
            witness = list(witness)
        return {
            "kind": self.kind,
            "witness": witness,
            "trace": list(self.trace) if self.trace is not None else None,
        }


@dataclass(frozen=True)
class SoundnessReport:
    violations: tuple[Violation, ...]
    states_explored: int

    @property
    def verdict(self) -> str:
        """Sound without violations, Unknown when the state cap was hit,
        Unsound otherwise."""
        if not self.violations:
            return SOUND
        if any(v.kind == "StateSpaceExceeded" for v in self.violations):
            return UNKNOWN
        return UNSOUND

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "states_explored": self.states_explored,
            "violations": [v.to_dict() for v in self.violations],
        }


def check_soundness(net: WFNet, max_states: int = DEFAULT_MAX_STATES) -> SoundnessReport:
    """Decide soundness; Unknown only when the state cap is hit.

    max_states caps the markings explored. A net that reduces to the
    trivial net counts as its 2 markings, so a cap of 1 leaves it Unknown.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be >= 1, got {max_states}")

    structured, offending = is_wf_structured(net)
    if not structured:
        return SoundnessReport(
            violations=(Violation("NotWFStructured", witness=offending),),
            states_explored=0,
        )
    if not _reduces(net):
        return _explore(net, max_states)
    if max_states == 1:
        return SoundnessReport((Violation("StateSpaceExceeded"),), 2)
    return SoundnessReport((), 2)


def _reduces(net: WFNet) -> bool:
    """Whether the reduction rules collapse the net to i -> t -> o.

    Only the source place is marked. The rules, applied until none does:

    1. abstraction: an unmarked place s with producers, whose only consumer
       t has s as its only input, merges into t's producers when t has
       outputs, s is not one of them and no producer of s already outputs
       to one of them;
    2. parallel places: of two unmarked places other than the sink with
       the same producers and the same consumers, one goes;
    3. parallel transitions: of two transitions with the same inputs and
       the same outputs, one goes;
    4. self-loops: a transition whose only input and only output are the
       same place goes. If no other transition touches that place, the
       place is left isolated, and no rule removes an isolated place.
    """
    if any(len(set(t.pre)) < len(t.pre) or len(set(t.post)) < len(t.post)
           for t in net.transitions):
        return False  # arc weights above 1 are outside the rules
    pre = {t.id: set(t.pre) for t in net.transitions}
    post = {t.id: set(t.post) for t in net.transitions}
    producers: dict[str, set[str]] = {p: set() for p in net.places}
    consumers: dict[str, set[str]] = {p: set() for p in net.places}
    for t in net.transitions:
        for p in t.pre:
            consumers[p].add(t.id)
        for p in t.post:
            producers[p].add(t.id)
    inner = [p for p in net.places if p not in (net.source, net.sink)]

    def drop_transition(t: str) -> None:
        for p in pre.pop(t):
            consumers[p].discard(t)
        for p in post.pop(t):
            producers[p].discard(t)

    def drop_place(p: str) -> None:
        for t in producers.pop(p):
            post[t].discard(p)
        for t in consumers.pop(p):
            pre[t].discard(p)
        inner.remove(p)

    changed = True
    while changed:
        changed = False
        for s in list(inner):
            if len(consumers[s]) != 1 or not producers[s]:
                continue
            (t,) = consumers[s]
            outs = post[t]
            if pre[t] != {s} or not outs or s in outs:
                continue
            if any(post[u] & outs for u in producers[s]):
                continue
            for u in producers[s]:
                post[u] |= outs
                for p in outs:
                    producers[p].add(u)
            drop_transition(t)
            drop_place(s)
            changed = True

        twins: dict[tuple[frozenset[str], frozenset[str]], str] = {}
        for p in list(inner):
            key = (frozenset(producers[p]), frozenset(consumers[p]))
            if key in twins:
                drop_place(p)
                changed = True
            else:
                twins[key] = p

        twins = {}
        for t in list(pre):
            key = (frozenset(pre[t]), frozenset(post[t]))
            if key in twins:
                drop_transition(t)
                changed = True
            else:
                twins[key] = t

        for t in list(pre):
            if len(pre[t]) == 1 and pre[t] == post[t]:
                drop_transition(t)
                changed = True

    if inner or len(pre) != 1:
        return False
    ((t, ins),) = pre.items()
    return ins == {net.source} and post[t] == {net.sink}


def _explore(net: WFNet, max_states: int) -> SoundnessReport:
    """Decide soundness of a WF-structured net from its reachable markings."""
    index = {p: k for k, p in enumerate(net.places)}
    # Per transition: id, input bitmask, inputs of weight > 1, token change per place and in all.
    compiled = []
    consumers = [0] * len(net.places)  # per place, bitmask of its takers
    free = 0  # transitions without input places: candidates in every marking
    for n, t in enumerate(net.transitions):
        change: dict[int, int] = {}
        inputs = 0
        for k in map(index.__getitem__, t.pre):
            change[k] = change.get(k, 0) - 1
            inputs |= 1 << k
            consumers[k] |= 1 << n
        heavy = tuple((k, -d) for k, d in change.items() if d < -1)
        for p in t.post:
            change[index[p]] = change.get(index[p], 0) + 1
        free |= (not t.pre) << n
        compiled.append((t.id, inputs, heavy, tuple((k, d) for k, d in change.items() if d),
                         len(t.post) - len(t.pre)))
    pumpable = _may_run_forever(net)
    o_idx = index[net.sink]

    initial = tuple(1 if k == index[net.source] else 0 for k in range(len(net.places)))
    final = tuple(1 if k == o_idx else 0 for k in range(len(net.places)))

    # preds[m] = [(marking, transition fired to reach m), ...]. Past the initial
    # marking, the first entry is where the breadth-first search first reached
    # m; walks back stop at `initial` by identity, as entries hold stored keys.
    preds: dict[tuple[int, ...], list[tuple[tuple[int, ...], str]]] = {initial: []}
    total = {initial: 1}  # tokens per marking
    stuck: set[tuple[int, ...]] = set()  # markings that enable nothing
    fired: set[str] = set()
    queue = deque([initial])

    def trace_to(m: tuple[int, ...]) -> tuple[str, ...]:
        steps = []
        while m is not initial:
            m, tid = preds[m][0]
            steps.append(tid)
        return tuple(reversed(steps))

    def as_dict(m: tuple[int, ...]) -> dict[str, int]:
        return {net.places[k]: c for k, c in enumerate(m) if c}

    while queue:
        m = queue.popleft()
        support, candidates = 0, free
        for k, c in enumerate(m):
            if c:
                support |= 1 << k
                candidates |= consumers[k]
        enabled = False
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            tid, inputs, heavy, change, gain = compiled[low.bit_length() - 1]
            if inputs & ~support or heavy and any(m[k] < c for k, c in heavy):
                continue
            enabled = True
            marked = list(m)
            for k, d in change:
                marked[k] += d
            child = tuple(marked)
            fired.add(tid)
            seen = preds.get(child)
            if seen is not None:
                seen.append((m, tid))
                continue
            # Strict domination of an ancestor on the generation path means the
            # firing sequence between them repeats forever, so nets whose runs
            # are all finite skip the walk. A strict dominator holds more
            # tokens: ancestors with as many or more skip the comparison.
            tokens = total[m] + gain
            anc = m if pumpable else None
            while anc is not None:
                if total[anc] < tokens and all(a >= b for a, b in zip(child, anc)):
                    return SoundnessReport(
                        violations=(
                            Violation("Unbounded", witness=as_dict(child),
                                      trace=trace_to(m) + (tid,)),
                        ),
                        states_explored=len(preds),
                    )
                anc = preds[anc][0][0] if anc is not initial else None
            preds[child] = [(m, tid)]
            total[child] = tokens
            if len(preds) > max_states:
                return SoundnessReport(
                    violations=(Violation("StateSpaceExceeded"),),
                    states_explored=len(preds),
                )
            queue.append(child)
        if not enabled:
            stuck.add(m)

    violations: list[Violation] = []

    # Option to complete: every reachable marking must reach the completion
    # marking. Witness preference: a stuck marking over a live-locked one.
    completing: set[tuple[int, ...]] = set()
    if final in preds:
        completing.add(final)
        stack = [final]
        while stack:
            for prev, _ in preds[stack.pop()]:
                if prev not in completing:
                    completing.add(prev)
                    stack.append(prev)
    stranded = [m for m in preds if m not in completing]
    if stranded:
        witness = next((m for m in stranded if m in stuck), stranded[0])
        violations.append(
            Violation("DeadlockNoCompletion", witness=as_dict(witness),
                      trace=trace_to(witness))
        )

    # Proper completion: a token on the sink means exactly the completion
    # marking, nothing more.
    for m in preds:
        if m[o_idx] >= 1 and m != final:
            violations.append(
                Violation("ImproperCompletion", witness=as_dict(m), trace=trace_to(m))
            )
            break

    for t in net.transitions:
        if t.id not in fired:
            violations.append(Violation("DeadTransition", witness=t.id))

    return SoundnessReport(tuple(violations), len(preds))


def _may_run_forever(net: WFNet) -> bool:
    """Whether the net has a cycle or a transition without inputs; without
    either every run is finite, so no marking strictly dominates an ancestor."""
    after: dict[str, set[str]] = {p: set() for p in net.places}
    for t in net.transitions:
        if not t.pre:
            return True
        for p in t.pre:
            after[p].update(t.post)
    # Kahn's algorithm on places, p -> q when a transition takes p, gives q.
    waiting = Counter(chain.from_iterable(after.values()))
    ready = [p for p in net.places if not waiting[p]]
    for p in ready:
        for q in after[p]:
            waiting[q] -= 1
            if not waiting[q]:
                ready.append(q)
    return len(ready) < len(net.places)
