"""Classical soundness of workflow nets: net reduction, then state exploration.

A net is sound when, starting from one token on the source place: the
completion marking (one token on the sink, nothing else) stays reachable
from every reachable marking, nothing is ever left over once the sink is
marked, and every transition can fire in some run.

The net comes numbered (`wfnet.to_wfnet` or `WFNet.of`): the reduction,
the structure check and the explorer all read that one integer form.

A WF-net is sound exactly when its short-circuited net is live and
bounded (van der Aalst 1997), and four reduction rules that preserve
liveness and boundedness (Murata 1989; Desel and Esparza 1995) collapse
every block-structured net to the trivial net i -> t -> o. So the check
reduces first, from a worklist of the places and transitions the last
rule touched: when that succeeds, the net is Sound without exploring,
and the report counts the trivial net's 2 markings. Such a net is
WF-structured: a rule keeps whether each remaining node lies on a path
from i to o, and it removes a node on no such path only while another
stays (the producers of an abstracted place, its consumer's outputs, a
twin, a self-loop's place). So the structure check runs only on nets that
do not reduce; one that passes it goes to the explorer, and every Unsound
or Unknown report comes from it alone.

Exploration is breadth-first with deterministic transition order, so
witnesses and traces are reproducible. A marking is one int, place k in
bits [k*W, (k+1)*W), the top one a guard. W is one more than the bit
length of N = max(most inputs of a transition, 1 + g*(max_states + 1)),
g the largest token gain of a firing or 0. Every marking made lies at
most max_states + 1 firings from the initial one, each adding at most g
tokens, so no count exceeds N and none reaches its guard; no arc weight
does either, so no subtraction borrows across fields. With G the guards,
t is enabled in m when ((m | G) - take_t) & G == G, and m dominates a
when ((m | G) - a) & G == G. A marking that strictly dominates one of
its ancestors proves the net unbounded (the pumping run can repeat),
which rules out soundness immediately; the walk is skipped when a Kahn
pass over the places finds no cycle and every transition has an input,
as then every run is finite. The cap on explored markings (max_states,
set by `classify --max-states`) turns pathological nets into an honest
Unknown instead of an endless run.

A report's verdict is not stored but read off its violations: none is
Sound, a StateSpaceExceeded (the cap) is Unknown, anything else Unsound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .wfnet import WFNet, uncovered

DEFAULT_MAX_STATES = 100_000

SOUND = "Sound"
UNSOUND = "Unsound"
UNKNOWN = "Unknown"

VIOLATION_KINDS = ("NotWFStructured", "DeadlockNoCompletion", "ImproperCompletion",
                   "DeadTransition", "Unbounded", "StateSpaceExceeded")


@dataclass(frozen=True, slots=True)
class Violation:
    kind: str  # one of VIOLATION_KINDS
    witness: object = None  # marking dict, transition id, or offending node ids
    trace: tuple[str, ...] | None = None  # firing sequence from the initial marking


@dataclass(frozen=True, slots=True)
class SoundnessReport:
    violations: tuple[Violation, ...]
    states_explored: int

    @property
    def verdict(self) -> str:
        """Sound without violations, Unknown when the state cap was hit,
        Unsound otherwise."""
        if not self.violations:
            return SOUND
        for v in self.violations:  # a loop, not any(): stats reads every report's
            if v.kind == "StateSpaceExceeded":
                return UNKNOWN
        return UNSOUND


def check_soundness(net: WFNet, max_states: int = DEFAULT_MAX_STATES) -> SoundnessReport:
    """Decide soundness; Unknown only when the state cap is hit.

    max_states caps the markings explored. A net that reduces to the
    trivial net counts as its 2 markings, so a cap of 1 leaves it Unknown.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be >= 1, got {max_states}")
    # A net that reduces is WF-structured (see the module docstring).
    if _reduces(net):
        if max_states == 1:
            return SoundnessReport((Violation("StateSpaceExceeded"),), 2)
        return SoundnessReport((), 2)
    offending = uncovered(net)
    if offending:
        return SoundnessReport((Violation("NotWFStructured", witness=offending),), 0)
    return _explore(net, max_states)


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

    Each place and transition is tried once, then again whenever a change
    touches it: a place when its producers or consumers change, a
    transition and its places when its inputs or outputs change. Twins
    share a producer or consumer (places) or an input or output place
    (transitions), so they are looked for there. Isolated twins are not
    found, but an isolated place or transition is never removed anyway.
    """
    pre: list[set[int] | None] = [set(ks) for ks in net.pre]
    post: list[set[int] | None] = [set(ks) for ks in net.post]
    if (sum(map(len, pre)) + sum(map(len, post))
            < sum(map(len, net.pre)) + sum(map(len, net.post))):
        return False  # arc weights above 1 are outside the rules
    producers = [set(ts) for ts in net.producers]
    consumers = [set(ts) for ts in net.consumers]
    inner = set(range(len(net.places))) - {net.source, net.sink}
    places, transitions = set(inner), set(range(len(pre)))  # still to try

    def drop_transition(t: int) -> None:
        for p in pre[t]:
            consumers[p].discard(t)
        for p in post[t]:
            producers[p].discard(t)
        places.update(pre[t], post[t])
        pre[t] = post[t] = None

    def drop_place(p: int) -> None:
        inner.remove(p)
        for t in producers[p]:
            post[t].discard(p)
            transitions.add(t)
            places.update(pre[t], post[t])
        for t in consumers[p]:
            pre[t].discard(p)
            transitions.add(t)
            places.update(pre[t], post[t])

    while places or transitions:
        if places:
            s = places.pop()
            if s not in inner:
                continue
            givers, takers = producers[s], consumers[s]
            if len(takers) == 1 and givers:
                (t,) = takers
                outs = post[t]
                if len(pre[t]) == 1 and outs and s not in outs:
                    for u in givers:
                        if not post[u].isdisjoint(outs):
                            break
                    else:  # t and s go; s's producers give to t's outputs
                        for u in givers:
                            post[u].discard(s)
                            post[u] |= outs
                            transitions.add(u)
                            places.update(pre[u], post[u])
                        for p in outs:
                            producers[p].discard(t)
                            producers[p] |= givers
                        inner.remove(s)
                        pre[t] = post[t] = None
                        continue
            for u in givers or takers:  # a twin shares all of them: try one
                near = post[u] if givers else pre[u]
                if len(near) > 1:
                    for q in near:
                        if (q != s and q in inner and producers[q] == givers
                                and consumers[q] == takers):
                            drop_place(s)
                            break
                break
        else:
            t = transitions.pop()
            ins = pre[t]
            if ins is None:
                continue
            outs = post[t]
            if len(ins) == 1 and ins == outs:
                drop_transition(t)
                continue
            for p in ins or outs:  # a twin shares all of them: try one
                near = consumers[p] if ins else producers[p]
                if len(near) > 1:
                    for u in near:
                        if u != t and pre[u] == ins and post[u] == outs:
                            drop_transition(t)
                            break
                break

    if inner:
        return False
    alive = [t for t, ins in enumerate(pre) if ins is not None]
    return (len(alive) == 1 and pre[alive[0]] == {net.source}
            and post[alive[0]] == {net.sink})


def _explore(net: WFNet, max_states: int) -> SoundnessReport:
    """Decide soundness of a WF-structured net from its reachable markings,
    each packed into one int (see the module docstring)."""
    gains = [len(outs) - len(ins) for ins, outs in zip(net.pre, net.post)]
    width = max(max(map(len, net.pre), default=0),
                1 + max(max(gains, default=0), 0) * (max_states + 1)).bit_length() + 1
    bit = [1 << k * width for k in range(len(net.places))]  # one token on place k
    field, ones = (1 << width) - 1, sum(bit)
    guards = ones << width - 1  # a field minus what it lacks keeps its guard bit
    # Per transition: id, tokens taken, token change per place and in all.
    # consumers[k + 1]: the takers of place k, whose guard bit ends at (k + 1) * width.
    compiled, consumers = [], [0] * (len(bit) + 1)
    for n, (tid, ins, outs, gain) in enumerate(zip(net.transitions, net.pre, net.post, gains)):
        take = sum(map(bit.__getitem__, ins))
        compiled.append((tid, take, sum(map(bit.__getitem__, outs)) - take, gain))
        for k in ins:
            consumers[k + 1] |= 1 << n
    free = sum(1 << n for n, ins in enumerate(net.pre) if not ins)  # candidates in every marking
    pumpable = _may_run_forever(net)
    initial, final = bit[net.source], bit[net.sink]

    # preds[m] = [(marking, transition fired to reach m), ...]. Past the initial
    # marking, the first entry is where the breadth-first search first reached m.
    preds: dict[int, list[tuple[int, str]]] = {initial: []}
    total = {initial: 1}  # tokens per marking, kept where the walk reads them
    stuck: set[int] = set()  # markings that enable nothing
    fired = 0  # bit n: transition n fired
    queue = deque([initial])

    def trace_to(m: int) -> tuple[str, ...]:
        steps = []
        while m != initial:
            m, tid = preds[m][0]
            steps.append(tid)
        return tuple(reversed(steps))

    def as_dict(m: int) -> dict[str, int]:
        return {p: c for k, p in enumerate(net.places) if (c := m >> k * width & field)}

    while queue:
        m = queue.popleft()
        guarded, candidates = m | guards, free
        marked = (guarded - ones) & guards
        while marked:
            low = marked & -marked
            marked ^= low
            candidates |= consumers[low.bit_length() // width]
        enabled = 0
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            tid, take, delta, gain = compiled[low.bit_length() - 1]
            if (guarded - take) & guards != guards:
                continue
            enabled |= low
            child = m + delta
            seen = preds.get(child)
            if seen is not None:
                seen.append((m, tid))
                continue
            # Strict domination of an ancestor on the generation path means the
            # firing sequence between them repeats forever, so nets whose runs
            # are all finite skip the walk. A strict dominator holds more
            # tokens: ancestors with as many or more skip the comparison.
            if pumpable:
                total[child] = tokens = total[m] + gain
                anc = m
                while anc is not None:
                    if total[anc] < tokens and ((child | guards) - anc) & guards == guards:
                        unbounded = Violation("Unbounded", as_dict(child), trace_to(m) + (tid,))
                        return SoundnessReport((unbounded,), len(preds))
                    anc = preds[anc][0][0] if anc != initial else None
            preds[child] = [(m, tid)]
            if len(preds) > max_states:
                return SoundnessReport((Violation("StateSpaceExceeded"),), len(preds))
            queue.append(child)
        fired |= enabled
        if not enabled:
            stuck.add(m)

    violations: list[Violation] = []

    # Option to complete: every reachable marking must reach the completion
    # marking. Witness preference: a stuck marking over a live-locked one.
    completing = {final} if final in preds else set()
    stack = list(completing)
    while stack:
        for prev, _ in preds[stack.pop()]:
            if prev not in completing:
                completing.add(prev)
                stack.append(prev)
    stranded = [m for m in preds if m not in completing]
    if stranded:
        witness = next((m for m in stranded if m in stuck), stranded[0])
        violations.append(Violation("DeadlockNoCompletion", as_dict(witness), trace_to(witness)))

    # Proper completion: a token on the sink means exactly the completion
    # marking, nothing more.
    sink = field << net.sink * width
    for m in preds:
        if m & sink and m != final:
            violations.append(Violation("ImproperCompletion", as_dict(m), trace_to(m)))
            break

    for n, tid in enumerate(net.transitions):
        if not fired >> n & 1:
            violations.append(Violation("DeadTransition", witness=tid))

    return SoundnessReport(tuple(violations), len(preds))


def _may_run_forever(net: WFNet) -> bool:
    """Whether the net has a cycle or a transition without inputs; without
    either every run is finite, so no marking strictly dominates an ancestor."""
    if not all(net.pre):
        return True
    # Kahn's algorithm: a place clears once all its producers have fired and a
    # transition fires once all its inputs have cleared; a cycle's never clear.
    waiting = list(map(len, net.pre))  # inputs not cleared, per transition
    givers = list(map(len, net.producers))  # producers not fired, per place
    cleared = [p for p, n in enumerate(givers) if not n]
    for p in cleared:  # grows while it is walked
        for t in net.consumers[p]:
            waiting[t] -= 1
            if not waiting[t]:
                for q in net.post[t]:
                    givers[q] -= 1
                    if not givers[q]:
                        cleared.append(q)
    return len(cleared) < len(givers)
