"""Perspicuity classification and per-session reports.

A model is perspicuous when its normalized form translates to a sound
workflow net. Everything short of that carries a stage tag saying where it
fell out of the pipeline: a mixed gateway (no repair exists), a net whose
parts do not all lie between source and sink, an unsound net, or a state
space too large to decide.

The stage is not stored: it follows from the evidence a verdict carries,
the normalization outcome and the soundness report, as does `perspicuous`.
A report read back from JSON must say the same as its evidence.

One writer, session_json, states the report's JSON layout: json.dumps's
indent-2 form with keys in a fixed order and collections sorted, each leaf
from the C string and number formatters. The loader checks each field's
type once, builds the objects through their constructors, and refuses a
block no detector could find, metrics no session gives and block metrics
its own blocks do not give. It reads a report's block stamps as one
column, through eventlog.parse_timestamps, with the same per-stamp
fallback; a report any block check refuses is read again one block at a
time, so the error is the first bad block's own.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _str

from .blocks import Block, detect_blocks, max_simul_block
from .eventlog import (EventLog, _quote, _record, expand_reconnect, format_timestamp,
                       parse_timestamps)
from .metrics import METRIC_NAMES, SessionMetrics, compute_session_metrics
from .model import ProcessModel, read_json, typed
from .normalize import AppliedRule, NormalizationOutcome, normalize
from .replay import replay
from .soundness import (
    DEFAULT_MAX_STATES,
    SOUND,
    UNKNOWN,
    VIOLATION_KINDS,
    SoundnessReport,
    Violation,
    check_soundness,
)
from .wfnet import to_wfnet

STAGES = ("MixedGateway", "NotWFStructured", "Unsound", "StateSpaceExceeded", "Sound")


# The witness each violation kind writes, as (its shape, a test of a loaded
# value); a marking for the kinds not named.
_WITNESSES = {
    "StateSpaceExceeded": ("null", lambda w: w is None),
    "DeadTransition": ("a string", lambda w: type(w) is str),
    "NotWFStructured": ("a non-empty list of strings",
                        lambda w: type(w) is list and w and all(type(x) is str for x in w)),
}
_MARKING = ("a non-empty object of string to int", lambda w: type(w) is dict and w and all(
    type(p) is str and type(n) is int for p, n in w.items()))


def _strings(value, name: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; anything else raises TypeError."""
    if type(value) is list:
        try:
            "".join(value)  # refuses an item that is no string; JSON makes no str subclass
            return tuple(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be a list of strings, got {_quote(value)}")


# The writer states the json.dumps(indent=2) layout of a report and takes each
# leaf from a C formatter. `pad` is the indent of the line a value starts on.
_BOOL = ("false", "true")


def _scalar(value) -> str:
    """None, a string, an int or a finite float as json.dumps writes it."""
    return "null" if value is None else _str(value) if type(value) is str else repr(value)


def _array(items, pad: str, write=_str) -> str:
    if not items:
        return "[]"
    inner = "\n  " + pad
    return f"[{inner}" + f",{inner}".join(map(write, items)) + f"\n{pad}]"


def _object(pad: str, *fields: str) -> str:
    inner = "\n  " + pad
    return f"{{{inner}" + f",{inner}".join(fields) + f"\n{pad}}}"


# Each part of a report sits at a fixed indent; its layout is filled in by %.
_METRICS = _object("  ", *(f'"{name}": %s' for name in METRIC_NAMES))
_BLOCK = _object("    ", '"split": %s', '"join": %s', '"members": %s',
                 '"interval": [\n        "%s",\n        "%s"\n      ]', '"whole": %s')
_VERDICT = _object("  ", '"perspicuous": %s', '"stage": "%s"', '"normalization": ' + _object(
    "    ", '"rejected": %s', '"reason": %s', '"applied_rules": %s'), '"soundness": %s')
_SOUNDNESS = _object("    ", '"verdict": "%s"', '"states_explored": %s', '"violations": %s')
_RULE = _object(" " * 8, '"rule": %s', '"nodes": %s')
_VIOLATION = _object(" " * 8, '"kind": %s', '"witness": %s', '"trace": %s')


def _block_json(b: Block) -> str:
    return _BLOCK % (_str(b.split), _str(b.join), _array(sorted(b.members), " " * 6),
                     *map(format_timestamp, b.interval), _BOOL[b.whole])


def _witness_json(w, pad: str) -> str:
    """A marking, node ids, a transition id or null."""
    if type(w) is dict:
        return _object(pad, *[f"{_str(p)}: {n}" for p, n in w.items()])
    return _array(w, pad) if type(w) in (list, tuple) else _scalar(w)


def _violation_json(v: Violation) -> str:
    pad = " " * 10
    return _VIOLATION % (_str(v.kind), _witness_json(v.witness, pad),
                         "null" if v.trace is None else _array(v.trace, pad))


def _verdict_json(v: PerspicuityVerdict) -> str:
    norm, s = v.normalization, v.soundness
    rules = _array(norm.applied_rules, " " * 6,
                   lambda r: _RULE % (_str(r.rule), _array(r.nodes, " " * 10)))
    sound = "null" if s is None else _SOUNDNESS % (
        s.verdict, s.states_explored, _array(s.violations, " " * 6, _violation_json))
    return _VERDICT % (_BOOL[v.perspicuous], v.stage, _BOOL[norm.rejected],
                       _scalar(norm.reason), rules, sound)


def session_json(session_id: str, metrics: SessionMetrics, blocks,
                 verdict: PerspicuityVerdict | None = None) -> str:
    """A session's JSON form: the report's, or its metrics and blocks alone."""
    values = tuple(_scalar(float(x) if isinstance(x, Fraction) else x)
                   for x in map(metrics.__getattribute__, METRIC_NAMES))
    fields = [f'"session_id": {_str(session_id)}', '"metrics": ' + _METRICS % values,
              f'"blocks": {_array(blocks, "  ", _block_json)}']
    if verdict is not None:
        fields.append(f'"verdict": {_verdict_json(verdict)}')
    return _object("", *fields) + "\n"


@_record
class PerspicuityVerdict:
    normalization: NormalizationOutcome
    soundness: SoundnessReport | None  # None exactly when normalization rejected

    def __post_init__(self) -> None:
        if (self.soundness is None) != self.normalization.rejected:
            given = "null" if self.soundness is None else "given"
            raise ValueError(f"soundness {given} does not match rejected "
                             f"{self.normalization.rejected}")

    @property
    def stage(self) -> str:
        """Where the model fell out of the pipeline, read off the evidence."""
        if self.soundness is None:
            return "MixedGateway"
        verdict = self.soundness.verdict
        if verdict in (SOUND, UNKNOWN):  # a few comparisons: stats reads it for every report
            return "Sound" if verdict == SOUND else "StateSpaceExceeded"
        for v in self.soundness.violations:
            if v.kind == "NotWFStructured":
                return "NotWFStructured"
        return "Unsound"

    @property
    def perspicuous(self) -> bool:
        return self.stage == "Sound"

    def to_json(self) -> str:  # its layout in a report, two spaces less indented
        return _verdict_json(self).replace("\n  ", "\n") + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "PerspicuityVerdict":
        """Rebuild from the JSON form. The written rejected, soundness
        verdict, stage and perspicuous must equal what the evidence gives:
        a disagreement raises ValueError, a value of the wrong type
        TypeError."""
        norm = data["normalization"]
        rejected = typed(norm["rejected"], "rejected", bool)
        reason = typed(norm["reason"], "reason", str, type(None))
        applied = [AppliedRule(typed(r["rule"], "applied rule", str),
                               _strings(r["nodes"], "applied rule nodes"))
                   for r in typed(norm["applied_rules"], "applied_rules", list)]
        outcome = NormalizationOutcome(None, reason, tuple(applied))  # JSON carries no model
        if rejected != outcome.rejected:
            raise ValueError(f"rejected {rejected} does not match reason {_quote(reason)}")
        sound, s = None, data["soundness"]
        if s is not None:
            violations = []
            for v in typed(s["violations"], "violations", list):
                kind = v["kind"]
                if kind not in VIOLATION_KINDS:
                    raise TypeError(f"violation kind must be one of {', '.join(VIOLATION_KINDS)}"
                                    f", got {_quote(kind)}")
                trace = v["trace"]
                trace = None if trace is None else _strings(trace, "trace")
                witness = v["witness"]
                shape, fits = _WITNESSES.get(kind, _MARKING)
                if not fits(witness):
                    raise TypeError(f"{kind} witness must be {shape}, got {_quote(witness)}")
                # a NotWFStructured list loads as its tuple
                violations.append(Violation(kind, tuple(witness) if type(witness) is list
                                            else witness, trace))
            explored = typed(s["states_explored"], "states_explored", int)
            if explored < 0:
                raise ValueError("states_explored must be a non-negative int, "
                                 f"got {_quote(explored)}")
            sound = SoundnessReport(tuple(violations), explored)
            if s["verdict"] != sound.verdict:
                raise ValueError(f"soundness verdict {_quote(s['verdict'])} does not match "
                                 f"{sound.verdict!r} from its violations")
        perspicuous, stage = typed(data["perspicuous"], "perspicuous", bool), data["stage"]
        if stage not in STAGES:
            raise ValueError(f"unknown stage {_quote(stage)}")
        if perspicuous != (stage == "Sound"):
            raise ValueError(f"perspicuous {perspicuous} does not match stage {_quote(stage)}")
        verdict = cls(outcome, sound)
        if stage != verdict.stage:
            raise ValueError(f"stage {_quote(stage)} does not match {verdict.stage!r} "
                             "from its evidence")
        return verdict


def _blocks(items) -> tuple[list[Block], list[str]]:
    """The blocks of a report's JSON list and, in block order, why any is
    one no detector could find. Each rule is checked in the order a
    block's fields are read, but all stamps are read as one column between
    the two loops: only on a single block is a refusal surely its own.
    """
    heads, stamps = [], []
    for b in items:
        split, join, pair, whole = head = b["split"], b["join"], b["interval"], b["whole"]
        if type(split) is not str or type(join) is not str or type(whole) is not bool:
            raise TypeError("block split and join must be strings and whole a bool, "
                            f"got {_quote(split)}, {_quote(join)}, {_quote(whole)}")
        if (type(pair) is not list or len(pair) != 2
                or type(pair[0]) is not str or type(pair[1]) is not str):
            raise TypeError(f"interval must be a list of two strings, got {_quote(pair)}")
        heads.append(head)
        stamps += pair
    times = iter(parse_timestamps(stamps))
    blocks, problems = [], []
    for b, (split, join, _, whole), start, end in zip(items, heads, times, times):
        names = _strings(b["members"], "members")
        members = frozenset(names)
        problem = ("lacks its split or join" if split not in members or join not in members
                   else "repeats a member" if len(members) < len(names)
                   else "ends before it starts" if end < start else None)
        if problem:
            problems.append(f"block {_quote(split)}/{_quote(join)} {problem}")
        # completion_seq is not serialized; JSON-level round-trip only
        blocks.append(Block(split, join, members, 0, (start, end), whole))
    return blocks, problems


def _check_metrics(m: dict) -> None:
    """Refuse metric values, each an int, a float or null by now, that no
    session gives."""
    total, create = m["tot_time"], m["tot_create_time"]
    share, avg = m["perc_num_elements_with_moves"], m["avg_move_on_moved_elements"]
    if total < 0:
        raise ValueError(f"tot_time must be at least 0, got {_quote(total)}")
    if not 0 <= create <= total:
        raise ValueError(f"tot_create_time must lie between 0 and tot_time {_quote(total)}, "
                         f"got {_quote(create)}")
    if not 0 <= share <= 1:
        raise ValueError("perc_num_elements_with_moves must lie between 0 and 1, "
                         f"got {_quote(share)}")
    if avg is not None and avg < 1:
        raise ValueError(f"avg_move_on_moved_elements must be at least 1, got {_quote(avg)}")
    if (avg is None) != (share == 0):
        raise ValueError("avg_move_on_moved_elements must be null exactly when "
                         "perc_num_elements_with_moves is 0, "
                         f"got {_quote(_scalar(avg), str)} and {_quote(share)}")


def classify_model(model: ProcessModel,
                   max_states: int = DEFAULT_MAX_STATES) -> PerspicuityVerdict:
    """Normalize, translate, check soundness; the verdict's stage tells
    where it stopped."""
    outcome = normalize(model)
    if outcome.rejected:
        return PerspicuityVerdict(outcome, None)
    return PerspicuityVerdict(outcome, check_soundness(to_wfnet(outcome.model), max_states))


@_record
class SessionReport:
    session_id: str
    metrics: SessionMetrics
    blocks: tuple[Block, ...]
    verdict: PerspicuityVerdict

    def to_json(self) -> str:
        return session_json(self.session_id, self.metrics, self.blocks, self.verdict)

    @classmethod
    def from_dict(cls, data: dict) -> "SessionReport":
        """Rebuild from the JSON form; a missing key, a value of the wrong
        type, a block no detector could find, metrics no session gives or
        block metrics its blocks do not give raises ValueError."""
        try:
            items = typed(data["blocks"], "blocks", list)
            try:
                blocks, problems = _blocks(items)
            except (KeyError, TypeError, ValueError):  # one block at a time, to word the first
                blocks, problems = [], []
                for b in items:
                    more, found = _blocks([b])
                    blocks += more
                    problems += found
            report = cls(typed(data["session_id"], "session_id", str),
                         SessionMetrics.from_dict(data["metrics"]), tuple(blocks),
                         PerspicuityVerdict.from_dict(data["verdict"]))
        except KeyError as exc:
            raise ValueError(f"missing key {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ValueError(f"wrong value type: {exc}") from None
        except OverflowError as exc:  # Fraction() of an infinite float
            raise ValueError(f"bad number: {exc}") from None
        if problems:
            raise ValueError(problems[0])
        _check_metrics(data["metrics"])
        # k / n is the float nearest k/n, as float(Fraction(k, n)) is: what JSON holds
        whole = sum(b.whole for b in blocks) / len(blocks) if blocks else None
        if (report.metrics.max_simul_block != max_simul_block(blocks)
                or data["metrics"]["perc_num_block_as_a_whole"] != whole):
            raise ValueError("block metrics do not match the report's blocks")
        return report

    @classmethod
    def from_json(cls, text: str) -> "SessionReport":
        return cls.from_dict(read_json(text))


def classify_session(log: EventLog, max_states: int = DEFAULT_MAX_STATES) -> SessionReport:
    """Replay, measure, and classify one session end to end."""
    expanded = expand_reconnect(log)  # once; each stage's own expansion then returns it
    final = replay(expanded)
    blocks = detect_blocks(final, expanded)
    return SessionReport(
        session_id=log.session_id,
        metrics=compute_session_metrics(expanded, blocks),
        blocks=tuple(blocks),
        verdict=classify_model(final, max_states),
    )
